package tiered

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridmem/internal/core"
	"hybridmem/internal/memspec"
	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// genTrace materializes one workload (warmup then ROI, the same sequence
// the experiments replay) and returns the paper-rule zone sizing.
func genTrace(t testing.TB, name string, scale float64, seed int64) (recs []trace.Record, dram, nvm int) {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	gen, err := workload.NewGenerator(spec, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []trace.Source{gen.WarmupSource(seed + 1), gen} {
		part, err := trace.Materialize(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, part...)
	}
	dram, nvm = memspec.DefaultSizing().Partition(gen.Pages())
	return recs, dram, nvm
}

// smallCore returns a proposed-scheme config with tiny thresholds so tests
// can trigger migrations with a handful of accesses.
func smallCore() core.Config {
	return core.Config{ReadPerc: 0.5, WritePerc: 0.5, ReadThreshold: 3, WriteThreshold: 3}
}

func TestAsyncFaultDemotionPromotionCycle(t *testing.T) {
	e, err := New(Config{
		Policy:    Proposed,
		DRAMPages: 4,
		NVMPages:  16,
		Shards:    4,
		Core:      smallCore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// Five faults into a 4-frame DRAM: the fifth demotes one victim to NVM.
	pages := []uint64{100, 101, 102, 103, 104}
	for _, p := range pages {
		res, err := e.Serve(p*4096, trace.OpRead)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Fault || res.ServedFrom != mm.LocDRAM {
			t.Fatalf("page %d: fault=%v from=%v, want DRAM fault", p, res.Fault, res.ServedFrom)
		}
	}
	st := e.Stats()
	if st.Faults != 5 || st.Demotions != 1 || st.DemotionsFault != 1 {
		t.Fatalf("after faults: %+v", st)
	}

	// Find the demoted page and hammer it past the write threshold.
	var hot uint64
	found := false
	for _, p := range pages {
		if loc, ok := e.tbl.Peek(DefaultTenant, p); ok && loc == mm.LocNVM {
			hot, found = p, true
			break
		}
	}
	if !found {
		t.Fatal("no page landed in NVM")
	}
	for i := 0; i < 5; i++ {
		res, err := e.Serve(hot*4096, trace.OpWrite)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fault || res.ServedFrom != mm.LocNVM {
			t.Fatalf("write %d on %d: fault=%v from=%v", i, hot, res.Fault, res.ServedFrom)
		}
	}

	// One scan epoch finds it hot (5 writes > threshold 3) and promotes it,
	// demoting some DRAM victim to make room.
	if err := e.ScanOnce(); err != nil {
		t.Fatal(err)
	}
	if loc, ok := e.tbl.Peek(DefaultTenant, hot); !ok || loc != mm.LocDRAM {
		t.Fatalf("hot page %d at %v/%v after scan, want DRAM", hot, loc, ok)
	}
	st = e.Stats()
	if st.Promotions != 1 || st.DemotionsPromo != 1 || st.Scans != 1 {
		t.Fatalf("after scan: %+v", st)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The scan reset the window: an immediate rescan promotes nothing.
	if err := e.ScanOnce(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Promotions; got != 1 {
		t.Fatalf("second scan promoted again: %d", got)
	}
}

func TestClockDWFOnlineFaultZones(t *testing.T) {
	e, err := New(Config{Policy: ClockDWF, DRAMPages: 4, NVMPages: 8, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	if res, err := e.Serve(0, trace.OpRead); err != nil || res.ServedFrom != mm.LocNVM {
		t.Fatalf("read fault: %+v, %v; want NVM", res, err)
	}
	if res, err := e.Serve(4096, trace.OpWrite); err != nil || res.ServedFrom != mm.LocDRAM {
		t.Fatalf("write fault: %+v, %v; want DRAM", res, err)
	}
	// A single write to the NVM-resident page marks it hot.
	if _, err := e.Serve(0, trace.OpWrite); err != nil {
		t.Fatal(err)
	}
	if err := e.ScanOnce(); err != nil {
		t.Fatal(err)
	}
	if loc, _ := e.tbl.Peek(DefaultTenant, 0); loc != mm.LocDRAM {
		t.Fatalf("written NVM page not promoted, at %v", loc)
	}
}

func TestAdaptiveOnlineEpoch(t *testing.T) {
	cfg := core.DefaultAdaptiveConfig()
	pol, err := newOnlinePolicy(Adaptive, smallCore(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := pol.(*adaptiveOnline)

	// Migrations without utility double the thresholds.
	a.Epoch(EpochStats{Accesses: 1000, HitsDRAM: 0, Promotions: 100})
	if a.readThresh != 6 || a.writeThresh != 6 {
		t.Fatalf("thresholds %d/%d after useless migrations, want 6/6", a.readThresh, a.writeThresh)
	}
	// No migrations at all probe downward.
	a.Epoch(EpochStats{Accesses: 1000})
	if a.readThresh != 5 || a.writeThresh != 5 {
		t.Fatalf("thresholds %d/%d after idle epoch, want 5/5", a.readThresh, a.writeThresh)
	}
	// An empty epoch changes nothing.
	a.Epoch(EpochStats{})
	if a.readThresh != 5 || a.Adjustments != 2 {
		t.Fatalf("empty epoch adjusted: %d/%d", a.readThresh, a.Adjustments)
	}
	// Thresholds stay within the configured bounds.
	for i := 0; i < 20; i++ {
		a.Epoch(EpochStats{Accesses: 1000, Promotions: 100})
	}
	if a.readThresh > cfg.MaxThreshold {
		t.Fatalf("threshold %d exceeds bound %d", a.readThresh, cfg.MaxThreshold)
	}
}

func TestBreakEvenHits(t *testing.T) {
	n := BreakEvenHits(memspec.Default())
	if n < 1 {
		t.Fatalf("BreakEvenHits = %d", n)
	}
	// With Table IV parameters the break-even is on the order of tens to a
	// few hundred hits — the regime the default thresholds sit in.
	if n > 10000 {
		t.Fatalf("BreakEvenHits = %d, implausibly large", n)
	}
}

func TestEngineLifecycle(t *testing.T) {
	e, err := New(Config{DRAMPages: 2, NVMPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Serve(0, trace.OpRead); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Serve before Start: %v", err)
	}
	if err := e.Stop(); err == nil {
		t.Fatal("Stop before Start should fail")
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Fatal("double Start should fail")
	}
	if _, err := e.Serve(0, trace.OpRead); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if _, err := e.Serve(0, trace.OpRead); !errors.Is(err, ErrStopped) {
		t.Fatalf("Serve after Stop: %v", err)
	}
}

// TestConcurrentServeStress exercises the full concurrent machinery — the
// sharded fast path, the fault/demotion/eviction cascade, the scanner, the
// workers and the stats reader — under -race, then validates capacity and
// occupancy invariants once quiesced.
func TestConcurrentServeStress(t *testing.T) {
	e, err := New(Config{
		Policy:       Proposed,
		DRAMPages:    64,
		NVMPages:     256,
		Shards:       16,
		Core:         smallCore(),
		ScanInterval: 200 * time.Microsecond,
		Workers:      2,
		BatchSize:    32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 8
		opsEach    = 15000
		footprint  = 1024 // pages; 3.2x memory, so eviction stays hot
	)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < opsEach; i++ {
				op := trace.OpRead
				if rng.Intn(4) == 0 {
					op = trace.OpWrite
				}
				// Skewed accesses: half the traffic on 1/8 of the pages.
				p := uint64(rng.Intn(footprint))
				if rng.Intn(2) == 0 {
					p = uint64(rng.Intn(footprint / 8))
				}
				if _, err := e.Serve(p*4096, op); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w))
	}
	// Concurrent observers: stats snapshots and forced scans.
	stopObs := make(chan struct{})
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for {
			select {
			case <-stopObs:
				return
			default:
				_ = e.Stats()
				_ = e.ScanOnce()
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(stopObs)
	obsWG.Wait()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if st.Accesses != goroutines*opsEach {
		t.Fatalf("accesses = %d, want %d", st.Accesses, goroutines*opsEach)
	}
	if st.Hits()+st.Faults != st.Accesses {
		t.Fatalf("hits %d + faults %d != accesses %d", st.Hits(), st.Faults, st.Accesses)
	}
	if st.Promotions == 0 || st.Evictions == 0 {
		t.Fatalf("stress run too tame: %+v", st)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStopUnderTraffic stops the engine while serving goroutines are live:
// they must see ErrStopped, never a corrupt table.
func TestStopUnderTraffic(t *testing.T) {
	e, err := New(Config{
		DRAMPages:    32,
		NVMPages:     128,
		Core:         smallCore(),
		ScanInterval: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	var served, rejected atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				_, err := e.Serve(uint64(rng.Intn(512))*4096, trace.OpRead)
				if errors.Is(err, ErrStopped) {
					rejected.Add(1)
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				served.Add(1)
			}
		}(int64(w))
	}
	time.Sleep(5 * time.Millisecond)
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if served.Load() == 0 || rejected.Load() != 4 {
		t.Fatalf("served=%d rejected=%d", served.Load(), rejected.Load())
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServeScaling serves the same trace from 1 and from 16 goroutines and
// checks what is exact at any width: every issued access is counted once
// and the quiesced table is consistent. The throughput of the two widths
// is logged, not asserted — wall-clock scaling is the benchmark's job
// (engine_hot), and a comparison of two timings is not deterministic.
func TestServeScaling(t *testing.T) {
	recs, dram, nvm := genTrace(t, "bodytrack", 0.05, 3)

	run := func(goroutines int) float64 {
		e, err := New(Config{DRAMPages: dram, NVMPages: nvm})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		// Warm: one serial pass populates the table.
		for _, r := range recs {
			if _, err := e.Serve(r.Addr, r.Op); err != nil {
				t.Fatal(err)
			}
		}
		// internal/loadgen is the load driver, but it imports this package;
		// a plain striped fan-out is all the counts below need.
		const ops = 200000
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				i := len(recs) * g / goroutines
				for n := 0; n < ops/goroutines; n++ {
					if _, err := e.Serve(recs[i].Addr, recs[i].Op); err != nil {
						t.Error(err)
						return
					}
					if i++; i == len(recs) {
						i = 0
					}
				}
			}(g)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if err := e.Stop(); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if issued := int64(len(recs)) + ops; st.Accesses != issued {
			t.Fatalf("%d goroutines: issued %d accesses, engine counted %d", goroutines, issued, st.Accesses)
		}
		if st.Hits()+st.Faults != st.Accesses {
			t.Fatalf("%d goroutines: hits %d + faults %d != accesses %d", goroutines, st.Hits(), st.Faults, st.Accesses)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%d goroutines: %v", goroutines, err)
		}
		return ops / elapsed.Seconds()
	}

	serial := run(1)
	parallel := run(16)
	t.Logf("ops/s: 1 goroutine %.0f, 16 goroutines %.0f (%.2fx, GOMAXPROCS=%d)",
		serial, parallel, parallel/serial, runtime.GOMAXPROCS(0))
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{DRAMPages: 0, NVMPages: 8},
		{DRAMPages: 8, NVMPages: 0},
		{DRAMPages: 8, NVMPages: 8, Policy: Kind("nope")},
		{DRAMPages: 8, NVMPages: 8, Core: core.Config{ReadPerc: 2, WritePerc: 0.3, ReadThreshold: 1, WriteThreshold: 1}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d (%+v) accepted", i, cfg)
		}
	}
	for _, kind := range Kinds() {
		if _, err := New(Config{Policy: kind, DRAMPages: 8, NVMPages: 8}); err != nil {
			t.Errorf("kind %s rejected: %v", kind, err)
		}
	}
}

// TestEntryPointsShareAdmission drives the three entry points through every
// way an access can be turned away before it touches the table. They share
// one admit path, so each condition must produce the same sentinel from
// all three and leave the counters untouched.
func TestEntryPointsShareAdmission(t *testing.T) {
	entries := []struct {
		name string
		call func(e *Engine, tenant TenantID, addr uint64) error
	}{
		{"ServeTenant", func(e *Engine, tenant TenantID, addr uint64) error {
			_, err := e.ServeTenant(tenant, addr, trace.OpRead)
			return err
		}},
		{"ServeTenantBatch", func(e *Engine, tenant TenantID, addr uint64) error {
			n, err := e.ServeTenantBatch(tenant, []uint64{addr}, []trace.Op{trace.OpRead}, make([]ServeResult, 1))
			if err != nil && n != 0 {
				t.Errorf("rejected batch reports %d served", n)
			}
			return err
		}},
		{"Drop", func(e *Engine, tenant TenantID, addr uint64) error {
			_, err := e.Drop(tenant, addr)
			return err
		}},
	}
	const unknown = TenantID(9)
	states := []struct {
		name   string
		start  bool
		stop   bool
		tenant TenantID
		addr   uint64
		want   error
	}{
		{"not-started", false, false, DefaultTenant, 0, ErrNotStarted},
		// The lifecycle gate comes first: an unknown tenant on an engine
		// that is not serving reports the lifecycle error.
		{"not-started/unknown-tenant", false, false, unknown, 0, ErrNotStarted},
		{"stopped", true, true, DefaultTenant, 0, ErrStopped},
		{"stopped/unknown-tenant", true, true, unknown, 0, ErrStopped},
		{"unknown-tenant", true, false, unknown, 0, ErrUnknownTenant},
		{"out-of-range", true, false, DefaultTenant, math.MaxUint64, ErrPageRange},
		{"out-of-range/second-tenant", true, false, 1, math.MaxUint64, ErrPageRange},
	}
	for _, sc := range states {
		for _, en := range entries {
			t.Run(sc.name+"/"+en.name, func(t *testing.T) {
				e, err := New(Config{DRAMPages: 8, NVMPages: 8, Shards: 4, ScanInterval: time.Hour,
					Tenants: []TenantConfig{{ID: DefaultTenant, DRAMQuota: 4}, {ID: 1, DRAMQuota: 4}}})
				if err != nil {
					t.Fatal(err)
				}
				if sc.start {
					if err := e.Start(); err != nil {
						t.Fatal(err)
					}
					defer e.Stop()
				}
				if sc.stop {
					if err := e.Stop(); err != nil {
						t.Fatal(err)
					}
				}
				if err := en.call(e, sc.tenant, sc.addr); !errors.Is(err, sc.want) {
					t.Fatalf("err = %v, want %v", err, sc.want)
				}
				if st := e.Stats(); st != (Stats{}) {
					t.Fatalf("rejected access changed the counters: %+v", st)
				}
			})
		}
	}
}
