package loadgen

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hybridmem/internal/server"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

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

func mkRecs(n, pages int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{Addr: uint64(i%pages) * 4096, Op: trace.OpRead}
		if i%10 == 0 {
			recs[i].Op = trace.OpWrite
		}
	}
	return recs
}

// TestRunLoadExactOps: an op budget that divides evenly neither across
// workers nor into units is still issued exactly, over both transports —
// the engine in-process and RESP over a loopback server, whose only extra
// accesses are the one -LOADING probe each connection makes in its dial.
func TestRunLoadExactOps(t *testing.T) {
	const ops, workers = 1000, 3
	for _, tc := range []struct {
		name   string
		unit   int
		open   func(t *testing.T, e *tiered.Engine) func() (Target, error)
		probes int64
	}{
		{"engine/unit=1", 1, engineOpen, 0},
		{"engine/unit=16", 16, engineOpen, 0},
		{"resp/unit=1", 1, respOpen, workers},
		{"resp/unit=16", 16, respOpen, workers},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := startEngine(t, tiered.Config{DRAMPages: 16, NVMPages: 64})
			res, err := Run([]Load{{Recs: mkRecs(100, 40), Workers: workers, Open: tc.open(t, e)}},
				Config{Ops: ops, Unit: tc.unit})
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Aggregate
			if rep.Ops != ops || res.Loads[0].Ops != ops {
				t.Fatalf("Ops = %d (load %d), want %d", rep.Ops, res.Loads[0].Ops, ops)
			}
			if got := e.Stats().Accesses; got != ops+tc.probes {
				t.Fatalf("engine saw %d accesses, want %d", got, ops+tc.probes)
			}
			if rep.OpsPerSec <= 0 || rep.Elapsed <= 0 {
				t.Fatalf("degenerate report: %+v", rep)
			}
			// A quantile is its bucket's middle, so within 2x of Max.
			if rep.P50 > rep.P99 || rep.P99 > 2*rep.Max {
				t.Fatalf("quantiles not monotone: %+v", rep)
			}
		})
	}
}

func engineOpen(_ *testing.T, e *tiered.Engine) func() (Target, error) {
	return Engine(e, tiered.DefaultTenant)
}

func respOpen(t *testing.T, e *tiered.Engine) func() (Target, error) {
	t.Helper()
	s, err := server.New(e, server.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(time.Second) })
	return RESP(s.Addr().String(), "")
}

// fakeTarget records what one worker issued; gate, when set, is waited on
// before every unit, and closed runs when the worker has returned from its
// loop (its window is final by then).
type fakeTarget struct {
	mu     *sync.Mutex
	firsts *[]uint64
	units  *[]int
	issued bool
	gate   <-chan struct{}
	closed func()
}

func (f *fakeTarget) Issue(recs []trace.Record) error {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.issued {
		f.issued = true
		*f.firsts = append(*f.firsts, recs[0].Addr)
	}
	*f.units = append(*f.units, len(recs))
	return nil
}

func (f *fakeTarget) Close() error {
	if f.closed != nil {
		f.closed()
	}
	return nil
}

// TestStripingAndUnits: worker w of n starts at len*w/n, and a budget that
// is not a multiple of the unit ends each worker on one clamped unit.
func TestStripingAndUnits(t *testing.T) {
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i].Addr = uint64(i)
	}
	var (
		mu     sync.Mutex
		firsts []uint64
		units  []int
	)
	open := func() (Target, error) { return &fakeTarget{mu: &mu, firsts: &firsts, units: &units}, nil }
	// 4 workers x 25 records in units of 8: three full units and a 1.
	if _, err := Run([]Load{{Recs: recs, Workers: 4, Open: open}}, Config{Ops: 100, Unit: 8}); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, a := range firsts {
		seen[a] = true
	}
	for _, want := range []uint64{0, 25, 50, 75} {
		if !seen[want] {
			t.Errorf("no worker started at record %d (starts %v)", want, firsts)
		}
	}
	count := map[int]int{}
	for _, u := range units {
		count[u]++
	}
	if len(units) != 16 || count[8] != 12 || count[1] != 4 {
		t.Errorf("units issued %v, want 12 of 8 and 4 of 1", count)
	}
	// Fewer ops than workers: the worker left with a zero share issues
	// nothing (and does not mistake it for "unbounded").
	units = nil
	res, err := Run([]Load{{Recs: recs, Workers: 4, Open: open}}, Config{Ops: 3, Unit: 8})
	if err != nil || res.Aggregate.Ops != 3 || len(units) != 3 {
		t.Errorf("3 ops over 4 workers: %+v, %v, units %v; want three units of 1", res, err, units)
	}
}

// TestTenantWindows: a tenant that finishes its share early is rated over
// its own first-to-last window, not the run's. The slow tenant's target
// blocks until every fast worker has returned, so the fast window closes
// strictly before the run does — ordered by the channel, not by a clock.
func TestTenantWindows(t *testing.T) {
	var (
		mu         sync.Mutex
		firsts     []uint64
		units      []int
		fastDone   = make(chan struct{})
		fastOpen   sync.WaitGroup
		fastClosed = func() { fastOpen.Done() }
	)
	const fastWorkers = 2
	fastOpen.Add(fastWorkers)
	go func() { fastOpen.Wait(); close(fastDone) }()
	fast := func() (Target, error) {
		return &fakeTarget{mu: &mu, firsts: &firsts, units: &units, closed: fastClosed}, nil
	}
	slow := func() (Target, error) {
		return &fakeTarget{mu: &mu, firsts: &firsts, units: &units, gate: fastDone}, nil
	}
	recs := mkRecs(10, 10)
	res, err := Run([]Load{
		{Recs: recs, Workers: fastWorkers, Open: fast},
		{Recs: recs, Workers: 1, Open: slow},
	}, Config{Ops: 200})
	if err != nil {
		t.Fatal(err)
	}
	f, s, agg := res.Loads[0], res.Loads[1], res.Aggregate
	if f.Ops != 100 || s.Ops != 100 || agg.Ops != 200 {
		t.Fatalf("ops fast %d slow %d aggregate %d", f.Ops, s.Ops, agg.Ops)
	}
	if f.Elapsed >= agg.Elapsed {
		t.Errorf("fast tenant window %v not inside the run's %v", f.Elapsed, agg.Elapsed)
	}
	if f.OpsPerSec <= float64(f.Ops)/agg.Elapsed.Seconds() {
		t.Errorf("fast tenant rate %.0f diluted by the slow tenant's tail", f.OpsPerSec)
	}
	if s.Elapsed > agg.Elapsed {
		t.Errorf("slow tenant window %v exceeds the run's %v", s.Elapsed, agg.Elapsed)
	}
}

func TestRunLoadDurationBudget(t *testing.T) {
	e := startEngine(t, tiered.Config{DRAMPages: 16, NVMPages: 64})
	recs := []trace.Record{{Addr: 0, Op: trace.OpRead}, {Addr: 4096, Op: trace.OpWrite}}
	res, err := Run([]Load{{Recs: recs, Workers: 2, Open: Engine(e, tiered.DefaultTenant)}},
		Config{Duration: 10 * time.Millisecond})
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
	loads := []Load{
		{Recs: mkRecs(50, 20), Workers: 2, Open: Engine(e, 0)},
		{Recs: mkRecs(80, 20), Workers: 3, Open: Engine(e, 1)},
	}
	// 1001 ops split 501/500 across tenants, then unevenly across each
	// tenant's workers: every op must still be served exactly once.
	res, err := Run(loads, Config{Ops: 1001})
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
	if _, err := Run([]Load{{Recs: mkRecs(5, 20), Workers: 1, Open: Engine(e, 9)}},
		Config{Ops: 1}); err == nil {
		t.Error("unknown tenant accepted")
	}
}

func TestRunLoadValidation(t *testing.T) {
	e, err := tiered.New(tiered.Config{DRAMPages: 2, NVMPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	open := Engine(e, tiered.DefaultTenant)
	recs := []trace.Record{{Addr: 0}}
	for name, tc := range map[string]struct {
		loads []Load
		cfg   Config
	}{
		"no loads":       {nil, Config{Ops: 1}},
		"empty trace":    {[]Load{{Workers: 1, Open: open}}, Config{Ops: 1}},
		"zero workers":   {[]Load{{Recs: recs, Open: open}}, Config{Ops: 1}},
		"missing budget": {[]Load{{Recs: recs, Workers: 1, Open: open}}, Config{}},
		"negative unit":  {[]Load{{Recs: recs, Workers: 1, Open: open}}, Config{Ops: 1, Unit: -1}},
		// Serving a stopped engine surfaces the lifecycle error.
		"unstarted engine": {[]Load{{Recs: recs, Workers: 1, Open: open}}, Config{Ops: 1}},
		"open fails": {[]Load{{Recs: recs, Workers: 1, Open: func() (Target, error) {
			return nil, errors.New("refused")
		}}}, Config{Ops: 1}},
	} {
		if _, err := Run(tc.loads, tc.cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
