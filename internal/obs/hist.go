package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets: bucket i counts observations whose bit length is i, i.e.
// values in [2^(i-1), 2^i). 64-bit values need 65 buckets (bit lengths
// 0..64).
const histBuckets = 65

// Histogram is a concurrent log-bucket histogram of non-negative int64
// observations (typically nanoseconds), the repo's one latency histogram:
// server series observe into it from every connection, and each
// load-generator worker owns a private one that is merged after the run.
// Every field is an atomic, so Observe is lock-free and allocation-free
// from any number of goroutines.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
}

// NewHistogram returns an empty histogram. Use Registry.Histogram to
// create and register in one step.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one value. Negative values clamp to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Merge adds o's observations into h. Each field is read and added
// atomically, but not the set of them: merge a histogram its writers have
// finished with.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	v := o.max.Load()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Quantile estimates the q-quantile (0 <= q <= 1) by nearest rank: it is
// the observation of rank ceil(q*n) among n, ranks clamped to [1, n], so
// q = 0.5 over 100 observations is the 50th smallest. The estimate is the
// geometric middle of the bucket holding that rank, within 2x of the true
// value; 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			lo := int64(1) << (i - 1)
			return lo + lo/2
		}
	}
	return h.max.Load()
}

// snapshot returns (count, sum, upper bounds, cumulative counts) for the
// non-empty prefix of buckets. Upper bound of bucket i is 2^i - 1 (the
// largest value with bit length <= i). Counts are read bucket-by-bucket
// while writers proceed, so the cut is approximate; cumulative counts
// are forced monotone.
func (h *Histogram) snapshot() (count uint64, sum int64, le []uint64, cum []uint64) {
	sum = h.sum.Load()
	hi := 0
	var raw [histBuckets]uint64
	for i := 0; i < histBuckets; i++ {
		raw[i] = h.buckets[i].Load()
		if raw[i] != 0 {
			hi = i
		}
	}
	le = make([]uint64, hi+1)
	cum = make([]uint64, hi+1)
	var c uint64
	for i := 0; i <= hi; i++ {
		c += raw[i]
		if i == 64 {
			le[i] = ^uint64(0)
		} else {
			le[i] = (uint64(1) << uint(i)) - 1
		}
		cum[i] = c
	}
	count = c
	return count, sum, le, cum
}
