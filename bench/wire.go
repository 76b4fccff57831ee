package main

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"hybridmem/internal/obs"
	"hybridmem/internal/server"
	"hybridmem/internal/trace"
)

// wireSpec is the traffic of both wire workloads: the footprint that fits
// memory, GETs with one SET in ten.
var wireSpec = loopSpec{footprint: 100000, writeShare: 0.10, warmShare: 0.25, timedShare: 1}

// batchHist is the server's read-batch handling histogram.
const batchHist = "tierd_resp_batch_duration_ns"

// wireLoad is an engine behind a RESP server on loopback, and one client
// connection per load thread.
type wireLoad struct {
	*engineLoad
	srv     *server.Server
	reg     *obs.Registry
	clients []*server.Client
}

func (l *wireLoad) stop() {
	for _, c := range l.clients {
		_ = c.Close() // the server sees EOF either way
	}
	if l.srv != nil {
		_ = l.srv.Shutdown(time.Second) // force-closes what does not drain
	}
	l.engineLoad.stop()
}

// newWireLoad is the wire workloads' set-up: streams, engine, server,
// metric registration and the dials.
func newWireLoad(rc *runCtx) (*wireLoad, error) {
	el, err := newEngineLoad(rc, rc.onlineEngine(), wireSpec)
	if err != nil {
		return nil, err
	}
	l := &wireLoad{engineLoad: el, reg: obs.NewRegistry()}
	if l.srv, err = server.New(el.e, server.Config{Addr: "127.0.0.1:0"}); err != nil {
		l.stop()
		return nil, err
	}
	l.srv.RegisterMetrics(l.reg)
	el.e.RegisterMetrics(l.reg)
	if err := l.srv.Listen(); err != nil {
		l.stop()
		return nil, err
	}
	for w := 0; w < loadThreads; w++ {
		c, err := server.Dial(l.srv.Addr().String(), 2*time.Second)
		if err != nil {
			l.stop()
			return nil, err
		}
		l.clients = append(l.clients, c)
	}
	return l, nil
}

// wireSegment is what the client threads measured between one start and stop.
type wireSegment struct {
	ops, failed, pipelines int64
	opsPerSec, seconds     float64
	rtts                   []int64 // every pipeline, ns
	encode, flush, read    []int64 // the traced pipelines' three parts, ns
	err                    error
}

// run drives every connection for d. With spanEvery > 0 every spanEvery-th
// pipeline is traced: an rtt span and its encode, flush and read children.
func (l *wireLoad) run(rc *runCtx, d time.Duration, depth, spanEvery int) wireSegment {
	tracers := make([]*tracer, loadThreads)
	if spanEvery > 0 {
		for w := range tracers {
			tracers[w] = rc.tracer(maxSpans / loadThreads)
		}
	}
	var total wireSegment
	for _, p := range drive(d, func(w int, stop *atomic.Bool) wireSegment {
		return l.pipelines(w, stop, d, depth, spanEvery, tracers[w])
	}) {
		total.ops += p.ops
		total.failed += p.failed
		total.pipelines += p.pipelines
		total.opsPerSec += p.opsPerSec
		total.seconds = max(total.seconds, p.seconds)
		total.rtts = append(total.rtts, p.rtts...)
		total.encode = append(total.encode, p.encode...)
		total.flush = append(total.flush, p.flush...)
		total.read = append(total.read, p.read...)
		if total.err == nil {
			total.err = p.err
		}
	}
	return total
}

// pipelines is one connection's closed loop: enqueue depth commands, flush,
// read depth replies and check each one's type.
func (l *wireLoad) pipelines(w int, stop *atomic.Bool, d time.Duration, depth, spanEvery int, tr *tracer) wireSegment {
	s, c := l.streams[w], l.clients[w]
	pos := l.pos[w]
	var seg wireSegment
	seg.rtts = make([]int64, 0, int(d.Seconds()*120000)+1024)
	start := time.Now()
	for n := int64(0); !stop.Load(); n++ {
		traced := tr != nil && n%int64(spanEvery) == 0
		t0 := time.Now()
		for k := pos; k < pos+depth; k++ {
			if s.ops[k] == trace.OpWrite {
				c.EnqueueSet(s.addrs[k])
			} else {
				c.EnqueueGet(s.addrs[k])
			}
		}
		var tEnc, tFlush time.Time
		if traced {
			tEnc = time.Now()
		}
		if err := c.Flush(); err != nil {
			seg.failed += int64(depth)
			seg.err = err
			break
		}
		if traced {
			tFlush = time.Now()
		}
		for k := pos; k < pos+depth; k++ {
			want := byte('$')
			if s.ops[k] == trace.OpWrite {
				want = '+'
			}
			got, err := c.ReadReply()
			if err != nil && got != '-' {
				seg.failed += int64(pos + depth - k)
				seg.err = err
				break
			}
			if got != want {
				seg.failed++
			} else {
				seg.ops++
			}
		}
		if seg.err != nil {
			break
		}
		t1 := time.Now()
		seg.pipelines++
		if len(seg.rtts) < cap(seg.rtts) {
			seg.rtts = append(seg.rtts, int64(t1.Sub(t0)))
		}
		if traced {
			b, e, f, r := int64(t0.Sub(tr.epoch)), int64(tEnc.Sub(tr.epoch)), int64(tFlush.Sub(tr.epoch)), int64(t1.Sub(tr.epoch))
			req := int64(w)<<40 | n
			parent := tr.add("rtt", b, r, -1, req)
			tr.add("server.client.encode", b, e, parent, req)
			tr.add("server.client.flush", e, f, parent, req)
			tr.add("server.client.read", f, r, parent, req)
			seg.encode = append(seg.encode, e-b)
			seg.flush = append(seg.flush, f-e)
			seg.read = append(seg.read, r-f)
		}
		if pos += depth; pos == len(s.addrs) {
			pos = 0
		}
	}
	seg.seconds = time.Since(start).Seconds()
	seg.opsPerSec = float64(seg.ops) / seg.seconds
	l.pos[w] = pos
	l.issued.Add(seg.ops + seg.failed)
	return seg
}

// serverSnap is the server's counters at one instant, read through the
// registry it registered into and its own Stats.
type serverSnap struct {
	histSum, histCount float64
	stats              server.Stats
}

func (l *wireLoad) serverNow() serverSnap {
	snap := serverSnap{stats: l.srv.Stats()}
	if s, ok := obs.Find(l.reg.Snapshot(), batchHist); ok {
		snap.histSum, snap.histCount = float64(s.Value), float64(s.Count)
	}
	return snap
}

// scrape writes the Prometheus exposition every 100 ms until stop, and
// returns how long each write took.
func (l *wireLoad) scrape(stop <-chan struct{}) []int64 {
	var took []int64
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return took
		case <-tick.C:
			t0 := time.Now()
			if err := l.reg.WritePrometheus(io.Discard); err == nil {
				took = append(took, int64(time.Since(t0)))
			}
		}
	}
}

// runWire is wire_pipe64 and wire_pipe1.
func runWire(rc *runCtx, depth int) (*outcome, error) {
	o := newOutcome()
	o.params = map[string]any{
		"engine":          describe(rc.onlineEngine()),
		"footprint_pages": wireSpec.footprint, "set_share": wireSpec.writeShare, "pipeline_depth": depth,
		"load":   fmt.Sprintf("%d connections over loopback TCP to an in-process server, closed loop", loadThreads),
		"stream": fmt.Sprintf("%d accesses per connection, Zipf s=%g v=%d over a seeded page permutation", streamLen, zipfS, zipfV),
	}
	began := time.Now()
	l, err := newWireLoad(rc)
	if err != nil {
		return nil, err
	}
	defer l.stop()
	o.set("setup_s", time.Since(began).Seconds())

	if warm := l.run(rc, rc.dur(wireSpec.warmShare), depth, 0); warm.err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}

	timedFor := rc.dur(wireSpec.timedShare)
	if rc.trace {
		timedFor = rc.dur(0.4)
	}
	e0, s0, p0 := l.e.Stats(), l.serverNow(), procNow()
	seg := l.run(rc, timedFor, depth, 0)
	e1, s1, p1 := l.e.Stats(), l.serverNow(), procNow()
	o.ops(seg.ops+seg.failed, seg.failed)
	if seg.err != nil {
		o.failures = append(o.failures, seg.err.Error())
	}
	meanRTT := mean(seg.rtts) / 1e3
	o.set("ops_per_s", seg.opsPerSec)
	rtts := o.setP50P99("server.client.rtt_p50_us", "server.client.rtt_p99_us", seg.rtts, 1e3)
	o.setP50("op_p50_us", rtts, 1e3)
	o.setEngineRatios(e1.Sub(e0), seg.seconds)
	o.setProc(p0, p1, float64(seg.ops))

	cmds := float64(s1.stats.Commands - s0.stats.Commands)
	batches := s1.histCount - s0.histCount
	if batches > 0 && cmds > 0 && seg.pipelines > 0 {
		handle := (s1.histSum - s0.histSum) / batches / 1e3
		o.set("server.handle_us_mean", handle)
		o.set("server.cmds_per_read_batch", cmds/batches)
		o.set("server.batched_ops_ratio", float64(s1.stats.BatchedOps-s0.stats.BatchedOps)/cmds)
		o.set("server.pipelined_ratio", float64(s1.stats.Pipelined-s0.stats.Pipelined)/cmds)
		// By construction: mean RTT = handling + everything outside it.
		o.set("server.outside_handle_us", meanRTT-handle*batches/float64(seg.pipelines))
		o.set("server.client.rtt_mean_us", meanRTT)
	}

	if rc.trace {
		spanEvery := 4
		if depth == 1 {
			spanEvery = 32
		}
		stopScrape := make(chan struct{})
		scraped := make(chan []int64, 1)
		go func() { scraped <- l.scrape(stopScrape) }()
		traced := l.run(rc, rc.dur(0.4), depth, spanEvery)
		close(stopScrape)
		scrapes := <-scraped
		o.ops(traced.ops+traced.failed, traced.failed)
		o.set("bench.trace_overhead", 1-traced.opsPerSec/seg.opsPerSec)
		o.set("server.client.encode_ns_per_op", mean(traced.encode)/float64(depth))
		o.set("server.client.flush_us", mean(traced.flush)/1e3)
		o.set("server.client.read_us", mean(traced.read)/1e3)
		o.setP50("obs.scrape_us_p50", summarize(scrapes), 1e3)

		// The engine's share of a round trip: the same streams, in process,
		// at batch = depth, on an identically built and warmed engine.
		replay, err := newEngineLoad(rc, rc.onlineEngine(), wireSpec)
		if err != nil {
			return nil, err
		}
		replay.run(rc, rc.dur(wireSpec.warmShare), segBatch, depth)
		rs := replay.run(rc, rc.dur(0.2), segBatch, depth)
		replay.stop()
		o.set("tiered.engine.replay_ns_per_op", mean(rs.calls)/float64(depth))
		o.set("tiered.engine.batch_ns_per_op", mean(rs.calls)/float64(depth))
	}

	o.set("heap_mb", heapMB())
	l.stop() // drain the server, then the daemon, before reading final counts
	o.checkEngine(l.e, l.issued.Load())
	return o, nil
}
