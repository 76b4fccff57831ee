package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
)

const (
	batchLen = 64
	// callSampleEvery is the stride at which batch calls are timed.
	callSampleEvery = 16
)

// loopSpec is what differs between engine_hot and engine_churn.
type loopSpec struct {
	footprint  int     // pages the streams draw from
	writeShare float64 // share of accesses that are writes
	warmShare  float64 // warm-up, as a share of -seconds
	timedShare float64 // timed phase, as a share of -seconds
}

var (
	engineHot = loopSpec{footprint: 100000, writeShare: 0.10, warmShare: 0.25, timedShare: 1}
	// Churn needs the longer warm-up: a full memory's first CLOCK sweep
	// clears every reference bit and evicts hot pages, and throughput dips
	// for about five seconds before it settles. It needs the longer timed
	// phase too: two load threads and a daemon that is busy 86% of the time
	// share two CPUs, its throughput moves ±8% from one second to the next,
	// and ten seconds left ten runs spread over 3.4-5.4% of their median.
	engineChurn = loopSpec{footprint: 600000, writeShare: 0.30, warmShare: 0.5, timedShare: 2}
)

// engineLoad is a started engine and the streams that will load it.
type engineLoad struct {
	e       *tiered.Engine
	streams []stream
	pos     []int // per-thread replay position, kept across segments
	issued  atomic.Int64
}

func (l *engineLoad) stop() {
	_ = l.e.Stop() // only fails when never started
}

// newEngineLoad is the set-up of the closed-loop workloads: stream
// generation, engine construction, and a fill that touches the hottest pages
// until the footprint is resident or memory is full, so no run starts on
// first-touch faults.
func newEngineLoad(rc *runCtx, cfg tiered.Config, spec loopSpec) (*engineLoad, error) {
	streams, perm := newStreams(rc.size(spec.footprint), rc.size(streamLen), spec.writeShare, rc.seed)
	e, err := tiered.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	l := &engineLoad{e: e, streams: streams, pos: make([]int, loadThreads)}
	{
		frames := min(cfg.DRAMPages+cfg.NVMPages, len(perm))
		addrs := make([]uint64, batchLen)
		ops := make([]trace.Op, batchLen)
		out := make([]tiered.ServeResult, batchLen)
		for i := 0; i < frames; i += batchLen {
			n := min(batchLen, frames-i)
			for k := 0; k < n; k++ {
				addrs[k] = uint64(perm[i+k]) * pageBytes
			}
			served, err := e.ServeTenantBatch(0, addrs[:n], ops[:n], out[:n])
			l.issued.Add(int64(served))
			if err != nil {
				l.stop()
				return nil, fmt.Errorf("fill: %w", err)
			}
		}
	}
	return l, nil
}

// segMode is how a segment of the load loop issues and times its calls.
type segMode int

const (
	segBatch  segMode = iota // ServeTenantBatch, every 16th call timed
	segTraced                // the same, and each timed call leaves a span
	segSingle                // one ServeTenant per access, each one timed
)

// segment is what the load threads measured between one start and stop.
type segment struct {
	ops       int64
	opsPerSec float64 // sum over threads of ops ÷ the thread's own elapsed time
	seconds   float64 // longest thread
	calls     []int64 // sampled call durations (batch modes), ns
	hits      []int64 // per-access durations (single mode), ns
	faults    []int64
	failed    int64
	err       error
}

// run drives every load thread for d and merges what they measured.
func (l *engineLoad) run(rc *runCtx, d time.Duration, mode segMode, depth int) segment {
	tracers := make([]*tracer, loadThreads)
	if mode == segTraced {
		for w := range tracers {
			tracers[w] = rc.tracer(maxSpans / loadThreads)
		}
	}
	var total segment
	for _, p := range drive(d, func(w int, stop *atomic.Bool) segment {
		if mode == segSingle {
			return l.single(w, stop, d)
		}
		return l.batches(w, stop, d, depth, tracers[w])
	}) {
		total.ops += p.ops
		total.opsPerSec += p.opsPerSec
		total.seconds = max(total.seconds, p.seconds)
		total.calls = append(total.calls, p.calls...)
		total.hits = append(total.hits, p.hits...)
		total.faults = append(total.faults, p.faults...)
		total.failed += p.failed
		if total.err == nil {
			total.err = p.err
		}
	}
	return total
}

// batches is one thread's closed loop of ServeTenantBatch(depth) calls.
func (l *engineLoad) batches(w int, stop *atomic.Bool, d time.Duration, depth int, tr *tracer) segment {
	s := l.streams[w]
	pos := l.pos[w]
	out := make([]tiered.ServeResult, depth)
	var seg segment
	seg.calls = make([]int64, 0, int(d.Seconds()*60000)+1024)
	start := time.Now()
	for n := int64(0); !stop.Load(); n++ {
		sampled := n%callSampleEvery == 0 && len(seg.calls) < cap(seg.calls)
		var t0 time.Time
		if sampled {
			t0 = time.Now()
		}
		served, err := l.e.ServeTenantBatch(0, s.addrs[pos:pos+depth], s.ops[pos:pos+depth], out)
		if sampled {
			dt := time.Since(t0)
			seg.calls = append(seg.calls, int64(dt))
			if tr != nil {
				b := int64(t0.Sub(tr.epoch))
				tr.add("tiered.serve_batch", b, b+int64(dt), -1, int64(w)<<40|n)
			}
		}
		seg.ops += int64(served)
		if err != nil {
			seg.failed += int64(depth - served)
			seg.err = err
			break
		}
		if pos += depth; pos == len(s.addrs) {
			pos = 0
		}
	}
	l.finish(w, pos, start, &seg)
	return seg
}

// single is one thread's closed loop of ServeTenant calls, every call
// timed and filed by whether it faulted.
func (l *engineLoad) single(w int, stop *atomic.Bool, d time.Duration) segment {
	s := l.streams[w]
	pos := l.pos[w]
	var seg segment
	const keep = 1 << 20
	seg.hits = make([]int64, 0, keep)
	seg.faults = make([]int64, 0, keep)
	start := time.Now()
	for !stop.Load() {
		t0 := time.Now()
		r, err := l.e.ServeTenant(0, s.addrs[pos], s.ops[pos])
		dt := int64(time.Since(t0))
		if err != nil {
			seg.failed++
			seg.err = err
			break
		}
		seg.ops++
		if r.Fault {
			if len(seg.faults) < keep {
				seg.faults = append(seg.faults, dt)
			}
		} else if len(seg.hits) < keep {
			seg.hits = append(seg.hits, dt)
		}
		if pos++; pos == len(s.addrs) {
			pos = 0
		}
	}
	l.finish(w, pos, start, &seg)
	return seg
}

func (l *engineLoad) finish(w, pos int, start time.Time, seg *segment) {
	seg.seconds = time.Since(start).Seconds()
	seg.opsPerSec = float64(seg.ops) / seg.seconds
	l.pos[w] = pos
	l.issued.Add(seg.ops)
}

// runEngineLoop is engine_hot and engine_churn.
func runEngineLoop(rc *runCtx, spec loopSpec) (*outcome, error) {
	o := newOutcome()
	cfg := rc.onlineEngine()
	o.params = map[string]any{
		"engine":          describe(cfg),
		"footprint_pages": spec.footprint, "write_share": spec.writeShare,
		"load":   fmt.Sprintf("%d goroutines x ServeTenantBatch(%d), closed loop", loadThreads, batchLen),
		"stream": fmt.Sprintf("%d accesses per thread, Zipf s=%g v=%d over a seeded page permutation", streamLen, zipfS, zipfV),
	}
	began := time.Now()
	l, err := newEngineLoad(rc, cfg, spec)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	o.set("setup_s", time.Since(began).Seconds())

	if warm := l.run(rc, rc.dur(spec.warmShare), segBatch, batchLen); warm.err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}

	before, p0 := l.e.Stats(), procNow()
	timedFor := rc.dur(spec.timedShare)
	if rc.trace {
		timedFor = rc.dur(0.4)
	}
	seg := l.run(rc, timedFor, segBatch, batchLen)
	delta, p1 := l.e.Stats().Sub(before), procNow()
	o.ops(seg.ops+seg.failed, seg.failed)
	if seg.err != nil {
		o.failures = append(o.failures, seg.err.Error())
	}
	o.set("ops_per_s", seg.opsPerSec)
	calls := o.setP50P99("tiered.engine.call_p50_us", "tiered.engine.call_p99_us", seg.calls, 1e3)
	o.setP50("op_p50_us", calls, 1e3)
	o.set("tiered.engine.batch_ns_per_op", mean(seg.calls)/batchLen)
	o.setEngineRatios(delta, seg.seconds)
	o.setProc(p0, p1, float64(seg.ops))

	if rc.trace {
		traced := l.run(rc, rc.dur(0.3), segTraced, batchLen)
		o.ops(traced.ops+traced.failed, traced.failed)
		o.set("bench.trace_overhead", 1-traced.opsPerSec/seg.opsPerSec)

		single := l.run(rc, rc.dur(0.3), segSingle, 1)
		o.ops(single.ops+single.failed, single.failed)
		o.setP50("tiered.engine.hit_ns_p50", summarize(single.hits), 1)
		o.setP50P99("tiered.engine.fault_us_p50", "tiered.engine.fault_us_p99", single.faults, 1e3)
	}

	o.set("heap_mb", heapMB())
	dstats := l.e.DaemonStats()
	o.set("tiered.daemon.scan_last_us", float64(dstats.LastScanNS)/1e3)
	o.set("tiered.daemon.scan_max_us", float64(dstats.MaxScanNS)/1e3)

	l.stop() // quiesce the daemon before reading final counts
	o.checkEngine(l.e, l.issued.Load())
	return o, nil
}
