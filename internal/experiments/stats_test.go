package experiments

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestMean(t *testing.T) {
	m, err := mean([]float64{1, 2, 3, 4})
	if err != nil || !almostEqual(m, 2.5) {
		t.Errorf("Mean = %v, %v; want 2.5, nil", m, err)
	}
	if _, err := mean(nil); err != errEmpty {
		t.Errorf("mean(nil) err = %v, want errEmpty", err)
	}
}

func TestGeoMean(t *testing.T) {
	m, err := geoMean([]float64{1, 4})
	if err != nil || !almostEqual(m, 2) {
		t.Errorf("GeoMean = %v, %v; want 2, nil", m, err)
	}
	if _, err := geoMean([]float64{1, 0}); err == nil {
		t.Error("GeoMean with zero should error")
	}
	if _, err := geoMean(nil); err != errEmpty {
		t.Errorf("geoMean(nil) err = %v, want errEmpty", err)
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
		g, gerr := geoMean(xs)
		a, aerr := mean(xs)
		return gerr == nil && aerr == nil && g <= a*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummary(t *testing.T) {
	var s summary
	for _, x := range []float64{3, 1, 4, 1, 5} {
		s.add(x)
	}
	if s.n != 5 {
		t.Errorf("N = %d, want 5", s.n)
	}
	if !almostEqual(s.sum, 14) {
		t.Errorf("Sum = %v, want 14", s.sum)
	}
	if s.min != 1 || s.max != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.min, s.max)
	}
	if !almostEqual(s.mean(), 2.8) {
		t.Errorf("Mean = %v, want 2.8", s.mean())
	}
	wantVar := (9.0+1+16+1+25)/5 - 2.8*2.8
	if !almostEqual(s.variance(), wantVar) {
		t.Errorf("Variance = %v, want %v", s.variance(), wantVar)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s summary
	if s.mean() != 0 || s.variance() != 0 || s.n != 0 {
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
		var s summary
		for _, x := range clean {
			s.add(x)
		}
		if len(clean) == 0 {
			return s.n == 0
		}
		batch, _ := mean(clean)
		return math.Abs(s.mean()-batch) <= 1e-6*(1+math.Abs(batch))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
