package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hybridmem/internal/persist"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

// The checkpointed engine: 225,000 frames, filled to capacity.
const (
	persistDRAM = 25000
	persistNVM  = 200000
	// persistWriteShare is the share of writes among the accesses that fill
	// and dirty the engine.
	persistWriteShare = 0.10
)

// persistLoad is a full engine whose residency the checkpointers cut.
type persistLoad struct {
	e      *tiered.Engine
	cfg    tiered.Config
	rng    *rand.Rand
	next   uint64 // next page never served before
	issued int64
	dir    string                // the run's own directory, removed when it ends
	cpB    *persist.Checkpointer // the delta chain: its base cut is part of set-up
	dirB   string
	probe  *fgProbe // serves beside phase B's cuts in a traced run

	addrs []uint64
	ops   []trace.Op
	out   []tiered.ServeResult
}

// stop ends the engine and removes the run's checkpoint files.
func (l *persistLoad) stop() {
	_ = l.e.Stop() // only fails when never started
	_ = os.RemoveAll(l.dir)
}

// fresh serves n pages no one has touched: each is a fault, and on a full
// engine an eviction, so each changes the residency a cut must persist.
func (l *persistLoad) fresh(n int) error {
	for n > 0 {
		k := min(n, batchLen)
		for i := 0; i < k; i++ {
			l.addrs[i] = l.next * pageBytes
			l.next++
			l.ops[i] = trace.OpRead
			if l.rng.Float64() < persistWriteShare {
				l.ops[i] = trace.OpWrite
			}
		}
		served, err := l.e.ServeTenantBatch(0, l.addrs[:k], l.ops[:k], l.out[:k])
		l.issued += int64(served)
		if err != nil {
			return err
		}
		n -= k
	}
	return nil
}

func (l *persistLoad) frames() int { return l.cfg.DRAMPages + l.cfg.NVMPages }

// newPersistLoad is persist_cycle's set-up: build and fill the engine, then
// cut the base of the delta chain. The files go to a directory of the run's
// own under rc.dir, which may hold anything else.
func newPersistLoad(rc *runCtx) (*persistLoad, error) {
	dir, err := os.MkdirTemp(rc.dir, "persist-cycle-*")
	if err != nil {
		return nil, err
	}
	l := &persistLoad{
		dir: dir,
		cfg: tiered.Config{
			Policy: tiered.Proposed, DRAMPages: rc.size(persistDRAM), NVMPages: rc.size(persistNVM),
			Shards: engineShards, ScanInterval: time.Hour,
		},
		rng:   rand.New(rand.NewSource(rc.seed)),
		dirB:  filepath.Join(dir, "b"),
		addrs: make([]uint64, batchLen), ops: make([]trace.Op, batchLen), out: make([]tiered.ServeResult, batchLen),
	}
	// The seed moves the page range, and with it which shard each page
	// hashes to.
	l.next = uint64(l.rng.Int63n(1 << 30))
	if l.e, err = tiered.New(l.cfg); err != nil {
		_ = os.RemoveAll(dir)
		return nil, err
	}
	if err := l.e.Start(); err != nil {
		l.stop()
		return nil, err
	}
	if err := l.fresh(l.frames()); err != nil {
		l.stop()
		return nil, fmt.Errorf("fill: %w", err)
	}
	l.cpB, err = persist.NewCheckpointer(l.e, persist.Config{
		Dir: l.dirB, Interval: time.Hour, FullEvery: 1 << 30, MaxDeltaRatio: -1,
	})
	if err == nil {
		err = l.cpB.CheckpointNow()
	}
	if err != nil {
		l.stop()
		return nil, fmt.Errorf("base cut: %w", err)
	}
	return l, nil
}

// cutPhase is one phase's CheckpointNow calls.
type cutPhase struct {
	durs    []int64 // ns per cut
	records int64   // records written over the phase
	bytes   int64   // delta bytes written over the phase
	dirty   int64   // pages dirtied over the phase
}

// cuts dirties the engine and cuts it n times. timed, when set, is told of
// each cut (the traced run's spans).
func (l *persistLoad) cuts(cp *persist.Checkpointer, n, dirty int, timed func(i int, t0 time.Time, dt time.Duration)) (cutPhase, error) {
	var ph cutPhase
	for i := 0; i < n; i++ {
		if err := l.fresh(dirty); err != nil {
			return ph, err
		}
		if l.probe != nil {
			l.probe.cutting.Store(true)
		}
		t0 := time.Now()
		err := cp.CheckpointNow()
		dt := time.Since(t0)
		if l.probe != nil {
			l.probe.cutting.Store(false)
		}
		if err != nil {
			return ph, err
		}
		if timed != nil {
			timed(i, t0, dt)
		}
		st := cp.Stats()
		ph.durs = append(ph.durs, int64(dt))
		ph.records += st.LastRecords
		ph.bytes += st.LastDeltaBytes
		ph.dirty += int64(dirty)
	}
	return ph, nil
}

// count sizes a phase by the run length: perSecond cuts or restores for
// each second of -seconds, at least one.
func count(rc *runCtx, perSecond float64) int {
	return max(1, int(math.Round(perSecond*rc.seconds)))
}

// runPersistCycle is persist_cycle: full cuts, a delta chain at 1% dirty,
// delta cuts at 25% dirty, and restores of the chain into fresh engines.
func runPersistCycle(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	// 20 full cuts, 30 delta cuts and 10 restores at the benchmark's twelve
	// seconds; a traced run makes half as many.
	share := 1.0 / 12
	if rc.trace {
		share /= 2
	}
	nA, nB, nC, nD := count(rc, 20*share), count(rc, 30*share), count(rc, 2*share), count(rc, 10*share)
	began := time.Now()
	l, err := newPersistLoad(rc)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	o.set("setup_s", time.Since(began).Seconds())
	frames := l.frames()
	onePct, quarter := max(frames/100, 1), max(frames/4, 1)
	o.params = map[string]any{
		"engine":       describe(l.cfg) + ", filled",
		"phase_a":      fmt.Sprintf("%d full cuts (FullEvery 1), %d fresh pages before each", nA, onePct),
		"phase_b":      fmt.Sprintf("base, then %d delta cuts (FullEvery 1<<30, MaxDeltaRatio -1), %d fresh pages before each", nB, onePct),
		"phase_c":      fmt.Sprintf("%d delta cuts, %d fresh pages before each", nC, quarter),
		"phase_d":      fmt.Sprintf("%d restores of phase B's chain into fresh engines", nD),
		"flush_policy": "the checkpointer's own: mapped write, fsync, rename, directory fsync",
		"dir":          l.dir,
	}
	var tr *tracer
	if rc.trace {
		tr = rc.tracer(4096)
	}
	// spanned records every second cut as a span when tracing, so the two
	// halves give the tracing overhead.
	var plain, withSpan []int64
	spanned := func(name string) func(int, time.Time, time.Duration) {
		if tr == nil {
			return nil
		}
		return func(i int, t0 time.Time, dt time.Duration) {
			if i%2 == 1 {
				plain = append(plain, int64(dt))
				return
			}
			b := int64(t0.Sub(tr.epoch))
			tr.add(name, b, b+int64(dt), -1, int64(i))
			withSpan = append(withSpan, int64(dt))
		}
	}

	// Phase A: full cuts.
	cpA, err := persist.NewCheckpointer(l.e, persist.Config{Dir: filepath.Join(l.dir, "a"), Interval: time.Hour, FullEvery: 1})
	if err != nil {
		return nil, err
	}
	phA, err := l.cuts(cpA, nA, onePct, spanned("persist.cut_full"))
	if err != nil {
		return nil, fmt.Errorf("phase A: %w", err)
	}

	// Phase B: the delta chain at 1% dirty, with the foreground probe
	// beside it in a traced run.
	baseStats := l.cpB.Stats()
	baseRecords := baseStats.LastRecords
	if rc.trace {
		l.probe = startProbe(l.e, l.next-uint64(frames)/2, min(frames/8, 4096))
	}
	phB, err := l.cuts(l.cpB, nB, onePct, spanned("persist.cut_delta"))
	if l.probe != nil {
		l.issued += l.probe.stop(o)
		l.probe = nil
	}
	if err != nil {
		return nil, fmt.Errorf("phase B: %w", err)
	}

	// Phase D: restore phase B's chain into fresh engines.
	var restores []int64
	var restored int64
	cfgD := persist.Config{Dir: l.dirB, Interval: time.Hour, FullEvery: 1 << 30, MaxDeltaRatio: -1}
	for i := 0; i < nD; i++ {
		e2, err := tiered.New(l.cfg)
		if err != nil {
			return nil, err
		}
		cp, err := persist.NewCheckpointer(e2, cfgD)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		chain, rs, err := cp.Restore()
		dt := time.Since(t0)
		if err != nil || chain == nil {
			return nil, fmt.Errorf("phase D: restore: chain %v, %v", chain != nil, err)
		}
		if tr != nil {
			b := int64(t0.Sub(tr.epoch))
			tr.add("persist.restore", b, b+int64(dt), -1, int64(i))
		}
		restores = append(restores, int64(dt))
		restored += int64(rs.Restored)
		want := len(chain.Records) - rs.Skipped - rs.CapacityDrops
		o.check(rs.Restored == want && chain.Deltas == nB && !chain.Truncated && cp.Stats().Failures == 0,
			"restore %d: %d pages restored of %d records (%d skipped, %d dropped), %d of %d deltas replayed, %d failures",
			i, rs.Restored, len(chain.Records), rs.Skipped, rs.CapacityDrops, chain.Deltas, nB, cp.Stats().Failures)
		err = e2.CheckInvariants()
		o.check(err == nil, "restored engine: CheckInvariants: %v", err)
	}

	// Phase C: delta cuts at 25% dirty, on a chain of their own so phase
	// D's chain stays what phase B wrote.
	cpC, err := persist.NewCheckpointer(l.e, persist.Config{
		Dir: filepath.Join(l.dir, "c"), Interval: time.Hour, FullEvery: 1 << 30, MaxDeltaRatio: -1,
	})
	if err == nil {
		err = cpC.CheckpointNow()
	}
	if err != nil {
		return nil, fmt.Errorf("phase C: base: %w", err)
	}
	phC, err := l.cuts(cpC, nC, quarter, spanned("persist.cut_delta25"))
	if err != nil {
		return nil, fmt.Errorf("phase C: %w", err)
	}

	var timedNS int64
	for _, ds := range [][]int64{phA.durs, phB.durs, phC.durs, restores} {
		for _, d := range ds {
			timedNS += d
		}
	}
	pages := phA.records + phB.records + phC.records + restored
	full, delta := summarize(phA.durs), summarize(phB.durs)
	o.ops(pages, 0)
	o.set("ops_per_s", float64(pages)/(float64(timedNS)/1e9))
	o.setP50("op_p50_us", delta, 1e3)
	o.setP50("persist.cut_full_p50_ms", full, 1e6)
	o.setP50("persist.cut_delta_p50_ms", delta, 1e6)
	o.setP50("persist.cut_delta25_p50_ms", summarize(phC.durs), 1e6)
	o.setP50("persist.restore_p50_ms", summarize(restores), 1e6)
	o.set("persist.bytes_per_page", float64(baseStats.BaseBytes)/float64(baseRecords))
	o.set("persist.cut_ns_per_record", float64(sum(phA.durs))/float64(phA.records))
	o.set("persist.delta_bytes_per_dirty_page", float64(phB.bytes)/float64(phB.dirty))
	o.set("persist.records_per_cut", float64(phB.records)/float64(nB))
	for _, cp := range []*persist.Checkpointer{cpA, l.cpB, cpC} {
		st := cp.Stats()
		o.check(st.Failures == 0, "checkpointer reports %d failed writes", st.Failures)
	}

	if rc.trace {
		if len(plain) > 0 && len(withSpan) > 0 {
			o.set("bench.trace_overhead", 1-medianOf(plain)/medianOf(withSpan))
		}
		if err := l.layerSplit(o, tr, full.P50); err != nil {
			return nil, err
		}
	}

	o.set("heap_mb", heapMB())
	l.stop() // quiesce before reading final counts
	o.checkEngine(l.e, l.issued)
	return o, nil
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

func medianOf(xs []int64) float64 {
	return summarize(append([]int64(nil), xs...)).P50
}

// layerSplit times the halves of a cut and of a restore on their own: the
// file write without the table scan, the chain read without the engine, the
// engine's Restore without the files.
func (l *persistLoad) layerSplit(o *outcome, tr *tracer, fullCutNS float64) error {
	var reads []int64
	var chain *persist.Chain
	for i := 0; i < 3; i++ {
		t0 := tr.now()
		c, err := persist.ReadChain(l.dirB)
		if err != nil {
			return fmt.Errorf("ReadChain: %w", err)
		}
		t1 := tr.now()
		tr.add("persist.read_chain", t0, t1, -1, int64(i))
		reads = append(reads, t1-t0)
		chain = c
	}
	o.setP50("persist.read_chain_ms", summarize(reads), 1e6)

	pages := make([]tiered.RestoredPage, len(chain.Records))
	for i, r := range chain.Records {
		pages[i] = tiered.RestoredPage{
			Tenant: tiered.TenantID(r.Tenant), Page: r.Page, Node: int(r.Node), Warm: r.Warm,
			Score: r.Score(), Reads: uint64(r.Reads), Writes: uint64(r.Writes),
		}
	}
	var applies []int64
	for i := 0; i < 3; i++ {
		e2, err := tiered.New(l.cfg)
		if err != nil {
			return err
		}
		t0 := tr.now()
		if _, err := e2.Restore(pages); err != nil {
			return fmt.Errorf("Engine.Restore: %w", err)
		}
		t1 := tr.now()
		tr.add("tiered.engine.restore_apply", t0, t1, -1, int64(i))
		applies = append(applies, t1-t0)
	}
	o.setP50("tiered.engine.restore_apply_ms", summarize(applies), 1e6)

	snap := &persist.Snapshot{
		Seq: 1, Taken: time.Now(), DRAMPages: l.cfg.DRAMPages, NVMPages: l.cfg.NVMPages, Nodes: 1,
		Records: chain.Records, Complete: true,
	}
	dir := filepath.Join(l.dir, "w")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var writes []int64
	for i := 0; i < 5; i++ {
		t0 := tr.now()
		if _, err := persist.WriteSnapshot(filepath.Join(dir, persist.FileName), snap, persist.WriteOptions{}); err != nil {
			return fmt.Errorf("WriteSnapshot: %w", err)
		}
		t1 := tr.now()
		tr.add("persist.write_snapshot", t0, t1, -1, int64(i))
		writes = append(writes, t1-t0)
	}
	ws := summarize(writes)
	o.setP50("persist.write_snapshot_ms", ws, 1e6)
	if fullCutNS > 0 {
		o.set("persist.scan_share", 1-ws.P50/fullCutNS)
	}
	return nil
}

// fgProbe is one goroutine serving a resident hot set while the checkpointer
// cuts beside it: the foreground stall background work causes.
type fgProbe struct {
	cutting atomic.Bool
	done    atomic.Bool
	wg      sync.WaitGroup
	// ops and ns, filed by whether a cut was running when the call began.
	ops [2]int64
	ns  [2]int64
}

func startProbe(e *tiered.Engine, firstPage uint64, pages int) *fgProbe {
	p := &fgProbe{}
	addrs := make([]uint64, batchLen)
	ops := make([]trace.Op, batchLen)
	out := make([]tiered.ServeResult, batchLen)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for i := 0; !p.done.Load(); i++ {
			for k := range addrs {
				addrs[k] = (firstPage + uint64((i*batchLen+k)%pages)) * pageBytes
			}
			state := 0
			if p.cutting.Load() {
				state = 1
			}
			t0 := time.Now()
			n, err := e.ServeTenantBatch(0, addrs, ops, out)
			p.ns[state] += int64(time.Since(t0))
			p.ops[state] += int64(n)
			if err != nil {
				return
			}
		}
	}()
	return p
}

// stop ends the probe, records the slowdown, and returns how many accesses
// it issued.
func (p *fgProbe) stop(o *outcome) int64 {
	p.done.Store(true)
	p.wg.Wait()
	if p.ns[0] > 0 && p.ns[1] > 0 && p.ops[0] > 0 {
		between := float64(p.ops[0]) / float64(p.ns[0])
		during := float64(p.ops[1]) / float64(p.ns[1])
		o.set("persist.fg_slowdown", during/between)
	}
	return p.ops[0] + p.ops[1]
}
