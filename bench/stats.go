package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank.
// Zero for an empty sample, so a metric whose layer did no work reads 0.
func percentile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // q*n is a whole number more often than floats admit
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// summary is how a timing is reported: the median, the highest percentile
// that still has at least ten samples beyond it, and the sample count.
type summary struct {
	N     int
	P50   float64
	TailQ float64 // 0 when the sample supports no tail percentile
	Tail  float64
}

// tailLadder is the percentiles a summary may report as its tail, each as
// the one sample in how many that lies beyond it.
var tailLadder = []int{10, 100, 1000, 10000}

// summarize sorts samples in place.
func summarize(samples []int64) summary {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	n := len(samples)
	s := summary{N: n, P50: percentile(samples, 0.5)}
	for _, k := range tailLadder {
		if beyond := n / k; beyond >= 10 {
			s.TailQ, s.Tail = 1-1/float64(k), float64(samples[n-beyond-1])
		}
	}
	return s
}

func mean(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v)
	}
	return sum / float64(len(samples))
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), so a spread computed here is the one the
// driver computes. It needs two values; one value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0, 0, 0
	}
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func geoMean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
