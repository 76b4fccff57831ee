// Package stats provides the small statistical toolkit used across the
// simulator: arithmetic and geometric means (the paper reports both as
// "A-Mean" and "G-Mean" columns) and streaming summaries.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by aggregate functions invoked on empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// the paper's normalized metrics always are.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geometric mean requires positive values")
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs))), nil
}

// MustMean is Mean for inputs known to be non-empty (panics otherwise).
func MustMean(xs []float64) float64 {
	m, err := Mean(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// MustGeoMean is GeoMean for inputs known to be valid (panics otherwise).
func MustGeoMean(xs []float64) float64 {
	m, err := GeoMean(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Summary accumulates order-free statistics of a value stream.
type Summary struct {
	n          int64
	sum, sumSq float64
	min, max   float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
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

// N returns the number of observations recorded.
func (s *Summary) N() int64 { return s.n }

// Sum returns the total of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Min returns the smallest observation (0 if none).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if none).
func (s *Summary) Max() float64 { return s.max }

// Mean returns the arithmetic mean (0 if no observations).
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Variance returns the population variance (0 if fewer than 2 observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 { // numerical noise
		return 0
	}
	return v
}

// StdDev returns the population standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }
