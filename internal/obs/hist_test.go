package obs

import (
	"testing"
	"time"
)

// TestHistQuantiles pins the one latency histogram every latency figure of
// the online engine is reported through.
func TestHistQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile not 0")
	}
	// 90 observations near 1us, 10 near 1ms: the median lands in the 1us
	// bucket, the p99 in the 1ms bucket. Log buckets guarantee estimates
	// within 2x of the recorded values.
	const us, ms, sec = int64(time.Microsecond), int64(time.Millisecond), int64(time.Second)
	for i := 0; i < 90; i++ {
		h.Observe(us)
	}
	for i := 0; i < 10; i++ {
		h.Observe(ms)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if p50 := h.Quantile(0.50); p50 < us/2 || p50 > 2*us {
		t.Fatalf("P50 = %d, want ~1us", p50)
	}
	if p99 := h.Quantile(0.99); p99 < ms/2 || p99 > 2*ms {
		t.Fatalf("P99 = %d, want ~1ms", p99)
	}
	// Nearest rank ceil(q*n): rank 90 of 100 is still a 1us observation,
	// rank 91 the first 1ms one; ranks clamp to [1, n].
	if p90 := h.Quantile(0.90); p90 > 2*us {
		t.Fatalf("P90 = %d, want the 90th smallest (~1us)", p90)
	}
	if p91 := h.Quantile(0.91); p91 < ms/2 {
		t.Fatalf("P91 = %d, want the 91st smallest (~1ms)", p91)
	}
	if h.Quantile(0) != h.Quantile(0.01) || h.Quantile(1) != h.Quantile(0.99) {
		t.Fatal("ranks not clamped to [1, n]")
	}
	if h.Max() != ms {
		t.Fatalf("Max = %d", h.Max())
	}

	// Merging preserves count, sum and max.
	a, b := NewHistogram(), NewHistogram()
	a.Observe(us)
	b.Observe(sec)
	b.Observe(ms)
	a.Merge(b)
	if a.Count() != 3 || a.Sum() != us+ms+sec || a.Max() != sec {
		t.Fatalf("after merge: count=%d sum=%d max=%d", a.Count(), a.Sum(), a.Max())
	}
	if p := a.Quantile(1); p < sec/2 || p > 2*sec {
		t.Fatalf("merged P100 = %d, want ~1s", p)
	}
}
