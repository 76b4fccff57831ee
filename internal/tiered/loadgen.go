package tiered

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"hybridmem/internal/trace"
)

// Hist is a logarithmic latency histogram: bucket i holds durations whose
// nanosecond count has bit length i, so buckets are powers of two wide.
// Each load-generator worker owns one (no synchronization on the record
// path) and the per-worker histograms merge after the run.
type Hist struct {
	buckets [65]uint64
	count   uint64
	max     time.Duration
}

// Record adds one observation.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bits.Len64(uint64(d))]++
	h.count++
	if d > h.max {
		h.max = d
	}
}

// Add merges another histogram into h.
func (h *Hist) Add(o *Hist) {
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Max returns the largest observation.
func (h *Hist) Max() time.Duration { return h.max }

// Quantile estimates the q-quantile (0 < q <= 1) as the geometric middle
// of the bucket the quantile falls in, so the estimate is within 2x of the
// true value. Returns 0 on an empty histogram.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			if i == 0 {
				return 0
			}
			// Bucket i spans [2^(i-1), 2^i); its geometric middle is
			// 0.75 * 2^i.
			return time.Duration(0.75 * math.Pow(2, float64(i)))
		}
	}
	return h.max
}

// LoadConfig describes one closed-loop load-generation run: workers replay
// a trace into the engine, each issuing its next access as soon as the
// previous one returns.
type LoadConfig struct {
	// Goroutines is the number of concurrent closed-loop workers
	// (single-tenant RunLoad only; RunTenantLoad takes per-tenant counts).
	Goroutines int
	// Ops is the total access budget across all workers and tenants.
	// 0 means run until Duration expires.
	Ops int64
	// Duration is the wall-clock budget. 0 means run until Ops are done.
	// With both set, whichever limit is hit first ends the run.
	Duration time.Duration
	// Batch groups each worker's accesses into ServeTenantBatch calls of
	// this size (0 or 1 serves one access at a time through ServeTenant) —
	// the A/B lever for measuring what batch amortization buys the serve
	// path. Latency is then recorded as the per-access share of each
	// batch's wall time, so Ops and throughput stay comparable across
	// batch sizes.
	Batch int
}

// LoadReport is the outcome of one load run (or one tenant's share of it).
type LoadReport struct {
	// Ops is the number of accesses actually served.
	Ops int64
	// Elapsed is the wall-clock time from first to last access.
	Elapsed time.Duration
	// OpsPerSec is the aggregate closed-loop throughput.
	OpsPerSec float64
	// P50, P95, P99 and Max summarize per-access service latency as
	// measured at the caller (bucketed; quantiles are within 2x).
	P50, P95, P99, Max time.Duration
	// Hist is the merged latency histogram.
	Hist Hist
}

// reportFrom summarizes a merged histogram over a wall-clock window.
func reportFrom(h Hist, elapsed time.Duration) LoadReport {
	rep := LoadReport{Elapsed: elapsed, Hist: h}
	rep.Ops = int64(h.Count())
	if elapsed > 0 {
		rep.OpsPerSec = float64(rep.Ops) / elapsed.Seconds()
	}
	rep.P50 = rep.Hist.Quantile(0.50)
	rep.P95 = rep.Hist.Quantile(0.95)
	rep.P99 = rep.Hist.Quantile(0.99)
	rep.Max = rep.Hist.Max()
	return rep
}

// TenantLoad is one tenant's slice of a multi-tenant load run: its own
// trace (workload and seed chosen per tenant) replayed by its own
// closed-loop workers.
type TenantLoad struct {
	// Tenant is the namespace the accesses are served under; it must be
	// configured on the engine.
	Tenant TenantID
	// Recs is the trace the tenant's workers replay circularly.
	Recs []trace.Record
	// Goroutines is the tenant's closed-loop worker count.
	Goroutines int
}

// TenantReport is one tenant's outcome within a multi-tenant run.
type TenantReport struct {
	Tenant TenantID
	Report LoadReport
}

// MultiLoadReport is the outcome of a multi-tenant load run: the merged
// aggregate plus each tenant's own throughput and latency distribution.
type MultiLoadReport struct {
	Aggregate LoadReport
	// Tenants is ordered as the loads were given.
	Tenants []TenantReport
}

// RunLoad drives the engine with cfg.Goroutines closed-loop workers on the
// default tenant, each replaying recs (circularly, starting at a
// worker-specific offset so the workers do not march in lockstep) until
// the op or time budget runs out. The engine must be started. Used by
// cmd/tierd, the scaling tests and the serve benchmarks, so they all
// measure the same loop.
func RunLoad(e *Engine, recs []trace.Record, cfg LoadConfig) (*LoadReport, error) {
	if cfg.Goroutines < 1 {
		return nil, fmt.Errorf("tiered: load needs at least 1 goroutine, got %d", cfg.Goroutines)
	}
	m, err := RunTenantLoad(e, []TenantLoad{
		{Tenant: DefaultTenant, Recs: recs, Goroutines: cfg.Goroutines},
	}, cfg)
	if err != nil {
		return nil, err
	}
	rep := m.Aggregate
	return &rep, nil
}

// RunTenantLoad drives the engine with several tenants' workers
// concurrently — the live form of the paper's consolidated `mix` study.
// cfg.Ops is the total budget, split evenly across tenants (earlier
// tenants take the remainder) and then across each tenant's workers;
// cfg.Duration bounds all of them together. The engine must be started.
func RunTenantLoad(e *Engine, loads []TenantLoad, cfg LoadConfig) (*MultiLoadReport, error) {
	if len(loads) == 0 {
		return nil, fmt.Errorf("tiered: load needs at least one tenant")
	}
	for _, l := range loads {
		if len(l.Recs) == 0 {
			return nil, fmt.Errorf("tiered: load needs a non-empty trace (tenant %d)", l.Tenant)
		}
		if l.Goroutines < 1 {
			return nil, fmt.Errorf("tiered: load needs at least 1 goroutine, got %d (tenant %d)",
				l.Goroutines, l.Tenant)
		}
	}
	if cfg.Ops <= 0 && cfg.Duration <= 0 {
		return nil, fmt.Errorf("tiered: load needs an op or time budget")
	}
	if cfg.Batch < 0 {
		return nil, fmt.Errorf("tiered: load batch size must be >= 0, got %d", cfg.Batch)
	}

	// hists[t][w] is tenant t's worker w histogram; errs aligns with it.
	hists := make([][]Hist, len(loads))
	errs := make([][]error, len(loads))
	for t, l := range loads {
		hists[t] = make([]Hist, l.Goroutines)
		errs[t] = make([]error, l.Goroutines)
	}
	var deadline time.Time
	start := time.Now()
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}

	var wg sync.WaitGroup
	for t, l := range loads {
		tenantOps := int64(math.MaxInt64)
		if cfg.Ops > 0 {
			tenantOps = cfg.Ops / int64(len(loads))
			if int64(t) < cfg.Ops%int64(len(loads)) {
				tenantOps++
			}
		}
		g := l.Goroutines
		for w := 0; w < g; w++ {
			opsBudget := tenantOps
			if cfg.Ops > 0 {
				opsBudget = tenantOps / int64(g)
				if int64(w) < tenantOps%int64(g) {
					opsBudget++
				}
			}
			wg.Add(1)
			go func(l TenantLoad, t, w int, budget int64) {
				defer wg.Done()
				h := &hists[t][w]
				recs := l.Recs
				i := len(recs) * w / l.Goroutines
				prev := time.Now()
				if cfg.Batch > 1 {
					// Batched closed loop: fill the next slice of the
					// circular trace and serve it in one engine call.
					addrs := make([]uint64, cfg.Batch)
					ops := make([]trace.Op, cfg.Batch)
					res := make([]ServeResult, cfg.Batch)
					for n := int64(0); n < budget; {
						k := cfg.Batch
						if rem := budget - n; int64(k) > rem {
							k = int(rem)
						}
						for j := 0; j < k; j++ {
							r := recs[i]
							i++
							if i == len(recs) {
								i = 0
							}
							addrs[j], ops[j] = r.Addr, r.Op
						}
						if _, err := e.ServeTenantBatch(l.Tenant, addrs[:k], ops[:k], res[:k]); err != nil {
							errs[t][w] = err
							return
						}
						now := time.Now()
						per := now.Sub(prev) / time.Duration(k)
						for j := 0; j < k; j++ {
							h.Record(per)
						}
						prev = now
						n += int64(k)
						if !deadline.IsZero() && now.After(deadline) {
							return
						}
					}
					return
				}
				for n := int64(0); n < budget; n++ {
					r := recs[i]
					i++
					if i == len(recs) {
						i = 0
					}
					if _, err := e.ServeTenant(l.Tenant, r.Addr, r.Op); err != nil {
						errs[t][w] = err
						return
					}
					now := time.Now()
					h.Record(now.Sub(prev))
					prev = now
					if !deadline.IsZero() && now.After(deadline) {
						return
					}
				}
			}(l, t, w, opsBudget)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &MultiLoadReport{Tenants: make([]TenantReport, len(loads))}
	var all Hist
	for t, l := range loads {
		var merged Hist
		for w := range hists[t] {
			if errs[t][w] != nil {
				return nil, errs[t][w]
			}
			merged.Add(&hists[t][w])
		}
		all.Add(&merged)
		out.Tenants[t] = TenantReport{Tenant: l.Tenant, Report: reportFrom(merged, elapsed)}
	}
	out.Aggregate = reportFrom(all, elapsed)
	return out, nil
}
