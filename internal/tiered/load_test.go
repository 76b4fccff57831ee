package tiered_test

import (
	"errors"
	"testing"
	"time"

	"hybridmem/internal/loadgen"
	"hybridmem/internal/obs"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

// The engine under the load driver. internal/loadgen imports this package,
// so these live in the external test package; the driver's own properties
// (exact budgets over both transports, striping, per-tenant windows) are
// tested next to it.

func startEngine(t *testing.T, cfg tiered.Config) *tiered.Engine {
	t.Helper()
	e, err := tiered.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Stop() })
	return e
}

func mkRecs(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Addr: uint64(i%20) * 4096, Op: trace.OpRead}
	}
	return recs
}

// TestHistQuantiles pins the one latency histogram every figure this
// engine is reported with goes through (it was tiered.Hist's test, and is
// re-pointed at obs.Histogram rather than deleted).
func TestHistQuantiles(t *testing.T) {
	h := obs.NewHistogram()
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
	a, b := obs.NewHistogram(), obs.NewHistogram()
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

func TestRunLoadDurationBudget(t *testing.T) {
	e := startEngine(t, tiered.Config{DRAMPages: 16, NVMPages: 64})
	recs := []trace.Record{{Addr: 0, Op: trace.OpRead}, {Addr: 4096, Op: trace.OpWrite}}
	res, err := loadgen.Run([]loadgen.Load{{Recs: recs, Workers: 2, Open: loadgen.Engine(e, tiered.DefaultTenant)}},
		loadgen.Config{Duration: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Ops == 0 {
		t.Fatal("duration-bounded run served nothing")
	}
}

func TestRunTenantLoad(t *testing.T) {
	e := startEngine(t, tiered.Config{
		DRAMPages: 16, NVMPages: 64,
		Tenants: []tiered.TenantConfig{{ID: 0, DRAMQuota: 8}, {ID: 1, DRAMQuota: 6}},
	})
	loads := []loadgen.Load{
		{Recs: mkRecs(50), Workers: 2, Open: loadgen.Engine(e, 0)},
		{Recs: mkRecs(80), Workers: 3, Open: loadgen.Engine(e, 1)},
	}
	// 1001 ops split 501/500 across tenants, then unevenly across each
	// tenant's workers: every op must still be served exactly once.
	res, err := loadgen.Run(loads, loadgen.Config{Ops: 1001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Ops != 1001 {
		t.Fatalf("aggregate ops = %d, want 1001", res.Aggregate.Ops)
	}
	if len(res.Loads) != 2 || res.Loads[0].Ops != 501 || res.Loads[1].Ops != 500 {
		t.Fatalf("per-tenant reports: %+v, want 501 and 500 ops", res.Loads)
	}
	for id, rep := range res.Loads {
		st, ok := e.TenantStats(tiered.TenantID(id))
		if !ok || st.Accesses != rep.Ops {
			t.Fatalf("tenant %d engine saw %d accesses, report says %d", id, st.Accesses, rep.Ops)
		}
		if rep.OpsPerSec <= 0 {
			t.Fatalf("tenant %d degenerate throughput: %+v", id, rep)
		}
	}
	if got := e.Stats().Accesses; got != 1001 {
		t.Fatalf("engine saw %d accesses, want 1001", got)
	}
	// An unknown tenant surfaces the serve error.
	if _, err := loadgen.Run([]loadgen.Load{{Recs: mkRecs(5), Workers: 1, Open: loadgen.Engine(e, 9)}},
		loadgen.Config{Ops: 1}); err == nil {
		t.Error("unknown tenant accepted")
	}
}

func TestRunLoadValidation(t *testing.T) {
	e, err := tiered.New(tiered.Config{DRAMPages: 2, NVMPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	open := loadgen.Engine(e, tiered.DefaultTenant)
	recs := []trace.Record{{Addr: 0}}
	for name, tc := range map[string]struct {
		loads []loadgen.Load
		cfg   loadgen.Config
	}{
		"no loads":       {nil, loadgen.Config{Ops: 1}},
		"empty trace":    {[]loadgen.Load{{Workers: 1, Open: open}}, loadgen.Config{Ops: 1}},
		"zero workers":   {[]loadgen.Load{{Recs: recs, Open: open}}, loadgen.Config{Ops: 1}},
		"missing budget": {[]loadgen.Load{{Recs: recs, Workers: 1, Open: open}}, loadgen.Config{}},
		"negative unit":  {[]loadgen.Load{{Recs: recs, Workers: 1, Open: open}}, loadgen.Config{Ops: 1, Unit: -1}},
		// Serving a stopped engine surfaces the lifecycle error.
		"unstarted engine": {[]loadgen.Load{{Recs: recs, Workers: 1, Open: open}}, loadgen.Config{Ops: 1}},
		"open fails": {[]loadgen.Load{{Recs: recs, Workers: 1, Open: func() (loadgen.Target, error) {
			return nil, errors.New("refused")
		}}}, loadgen.Config{Ops: 1}},
	} {
		if _, err := loadgen.Run(tc.loads, tc.cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
