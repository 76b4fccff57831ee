package experiments

import (
	"errors"
	"math"
)

// The paper reports both an arithmetic ("A-Mean") and a geometric
// ("G-Mean") column; the seed study adds a streaming summary.

var errEmpty = errors.New("experiments: empty input")

// mean returns the arithmetic mean of xs.
func mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// geoMean returns the geometric mean of xs. All values must be positive;
// the paper's normalized metrics always are.
func geoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errEmpty
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("experiments: geometric mean requires positive values")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// summary accumulates order-free statistics of a value stream.
type summary struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// add records one observation.
func (s *summary) add(x float64) {
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
	s.sumSq += x * x
}

// mean returns the arithmetic mean (0 if no observations).
func (s *summary) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// variance returns the population variance (0 if fewer than 2 observations).
func (s *summary) variance() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 { // numerical noise
		return 0
	}
	return v
}

// stdDev returns the population standard deviation.
func (s *summary) stdDev() float64 { return math.Sqrt(s.variance()) }
