package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || !almostEqual(m, 2.5) {
		t.Errorf("Mean = %v, %v; want 2.5, nil", m, err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestGeoMean(t *testing.T) {
	m, err := GeoMean([]float64{1, 4})
	if err != nil || !almostEqual(m, 2) {
		t.Errorf("GeoMean = %v, %v; want 2, nil", m, err)
	}
	if _, err := GeoMean([]float64{1, 0}); err == nil {
		t.Error("GeoMean with zero should error")
	}
	if _, err := GeoMean(nil); err != ErrEmpty {
		t.Errorf("GeoMean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestGeoMeanLEMeanProperty(t *testing.T) {
	// AM-GM inequality: geometric mean never exceeds arithmetic mean.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			if v := math.Abs(r); v > 1e-6 && v < 1e6 && !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := MustGeoMean(xs)
		a := MustMean(xs)
		return g <= a*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, x := range []float64{3, 1, 4, 1, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Errorf("N = %d, want 5", s.N())
	}
	if !almostEqual(s.Sum(), 14) {
		t.Errorf("Sum = %v, want 14", s.Sum())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min(), s.Max())
	}
	if !almostEqual(s.Mean(), 2.8) {
		t.Errorf("Mean = %v, want 2.8", s.Mean())
	}
	wantVar := (9.0+1+16+1+25)/5 - 2.8*2.8
	if !almostEqual(s.Variance(), wantVar) {
		t.Errorf("Variance = %v, want %v", s.Variance(), wantVar)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSummaryMatchesBatchProperty(t *testing.T) {
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		var s Summary
		for _, x := range clean {
			s.Add(x)
		}
		if len(clean) == 0 {
			return s.N() == 0
		}
		batch := MustMean(clean)
		return math.Abs(s.Mean()-batch) <= 1e-6*(1+math.Abs(batch))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
