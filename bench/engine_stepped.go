package main

import (
	"fmt"
	"time"

	"hybridmem/internal/core"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/sim"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

const (
	// steppedScalePerSecond sizes the traces by the run length: Scale 0.2 at
	// the benchmark's twelve seconds.
	steppedScalePerSecond = 0.2 / 12
	// steppedMinPages floors each trace's footprint.
	steppedMinPages = 256
	// stepLen accesses are served between two ScanOnce calls.
	stepLen = 4096
	// chunkLen records are generated at a time, outside the timer.
	chunkLen = 1 << 20
)

// steppedTrace is one Table III trace replayed through a fresh engine by
// one goroutine that also drives the daemon's scan: nothing runs beside it,
// so every count repeats exactly.
type steppedTrace struct {
	name      string
	dram, nvm int
	roi       tiered.Stats // ROI delta
	failed    int64
	setupNS   int64   // generation, engine construction, warm-up pass
	roiNS     int64   // the ROI's serves and scans
	scanNS    int64   // its scans alone (traced run)
	steps     []int64 // ns per step of stepLen serves and one scan
	scans     []int64 // ns per ScanOnce (traced run)
	heapMB    float64
}

// replayStepped runs one trace. buf is the chunk buffer, reused across
// traces; tr is nil in an untraced run.
func replayStepped(rc *runCtx, name string, scale float64, buf []trace.Record, tr *tracer, req int64) (*steppedTrace, error) {
	st := &steppedTrace{name: name}
	t0 := time.Now()
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("no Table III workload %q", name)
	}
	gen, err := workload.NewGenerator(spec, flooredScale(spec, scale, rc.size(steppedMinPages)), rc.seed)
	if err != nil {
		return nil, err
	}
	st.dram, st.nvm = memspec.DefaultSizing().Partition(gen.Pages())
	e, err := tiered.New(tiered.Config{
		Policy: tiered.Proposed, DRAMPages: st.dram, NVMPages: st.nvm,
		Shards: engineShards, ScanInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	defer e.Stop()

	served := 0
	serve := func(r trace.Record) error {
		if _, err := e.Serve(r.Addr, r.Op); err != nil {
			st.failed++
			return err
		}
		served++
		return nil
	}
	warm := gen.WarmupSource(rc.seed + 1)
	for r, ok := warm.Next(); ok; r, ok = warm.Next() {
		if err := serve(r); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", name, err)
		}
		if served%stepLen == 0 {
			if err := e.ScanOnce(); err != nil {
				return nil, err
			}
		}
	}
	before := e.Stats()
	st.setupNS = int64(time.Since(t0))

	served = 0
	for {
		g0 := time.Now()
		buf = buf[:0]
		for len(buf) < chunkLen {
			r, ok := gen.Next()
			if !ok {
				break
			}
			buf = append(buf, r)
		}
		st.setupNS += int64(time.Since(g0))
		if len(buf) == 0 {
			break
		}
		c0 := time.Now()
		s0 := c0
		for _, r := range buf {
			if err := serve(r); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if served%stepLen != 0 {
				continue
			}
			var scan0 time.Time
			if tr != nil {
				scan0 = time.Now()
			}
			if err := e.ScanOnce(); err != nil {
				return nil, err
			}
			now := time.Now()
			if tr != nil {
				d := int64(now.Sub(scan0))
				st.scanNS += d
				st.scans = append(st.scans, d)
				b := int64(scan0.Sub(tr.epoch))
				tr.add("tiered.daemon.scan_once", b, b+d, -1, req)
			}
			st.steps = append(st.steps, int64(now.Sub(s0)))
			s0 = now
		}
		c1 := time.Now()
		st.roiNS += int64(c1.Sub(c0))
		if tr != nil {
			tr.add("engine_stepped.chunk", int64(c0.Sub(tr.epoch)), int64(c1.Sub(tr.epoch)), -1, req)
		}
	}
	st.roi = e.Stats().Sub(before)
	st.heapMB = heapMB()
	if err := e.Stop(); err != nil {
		return nil, err
	}
	if err := e.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("%s: CheckInvariants: %w", name, err)
	}
	return st, nil
}

// price copies an engine Stats delta field for field into the simulator's
// counts and prices it with the paper's models (Eq. 1 and Eq. 2). RuntimeNS
// stays zero: the wall-clock static term of Eq. 3 is left out.
func price(st *steppedTrace) (*model.Report, error) {
	d := st.roi
	return model.Evaluate(&sim.Result{
		Policy: "live-engine", DRAMPages: st.dram, NVMPages: st.nvm,
		Counts: sim.Counts{
			Accesses:  d.Accesses,
			ReadsDRAM: d.ReadsDRAM, WritesDRAM: d.WritesDRAM, ReadsNVM: d.ReadsNVM, WritesNVM: d.WritesNVM,
			Faults: d.Faults, FaultsToDRAM: d.FaultsToDRAM, FaultsToNVM: d.FaultsToNVM,
			Promotions: d.Promotions, Demotions: d.Demotions,
			DemotionsFault: d.DemotionsFault, DemotionsPromo: d.DemotionsPromo, DemotionsClean: d.DemotionsClean,
		},
	}, memspec.Default())
}

// simulate replays the same trace through the reference simulator with the
// paper's scheme at the engine's zone sizes.
func simulate(rc *runCtx, name string, scale float64, dram, nvm int) (sim.Counts, error) {
	spec, _ := workload.ByName(name)
	gen, err := workload.NewGenerator(spec, flooredScale(spec, scale, rc.size(steppedMinPages)), rc.seed)
	if err != nil {
		return sim.Counts{}, err
	}
	pol, err := core.New(dram, nvm, core.DefaultConfig())
	if err != nil {
		return sim.Counts{}, err
	}
	if _, err := sim.Run(gen.WarmupSource(rc.seed+1), pol, memspec.Default(), sim.Options{}); err != nil {
		return sim.Counts{}, err
	}
	res, err := sim.Run(gen, pol, memspec.Default(), sim.Options{})
	if err != nil {
		return sim.Counts{}, err
	}
	return res.Counts, nil
}

// runEngineStepped is engine_stepped.
func runEngineStepped(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	scale := steppedScalePerSecond * rc.seconds
	if rc.trace {
		scale /= 2
	}
	o.params = map[string]any{
		"traces": "12 Table III traces, each through a fresh engine sized 75%/10% of its footprint",
		"scale":  scale, "min_pages": rc.size(steppedMinPages), "step": stepLen, "chunk": chunkLen,
		"engine": "Shards 64, policy proposed, ScanInterval 1h, one goroutine: Serve per access, ScanOnce per step",
	}
	var tr *tracer
	if rc.trace {
		tr = rc.tracer(maxSpans / 8)
	}
	buf := make([]trace.Record, 0, chunkLen)
	var (
		setupNS, roiNS, scanNS, accesses int64
		steps, scans                     []int64
		amat, power, writes              []float64
		total                            tiered.Stats
		heap                             float64
		hitGap, faultRatio               []float64
		spannedNS, plainNS               int64
	)
	for i, name := range tableIII {
		st, err := replayStepped(rc, name, scale, buf, tr, int64(i))
		if err != nil {
			return nil, err
		}
		o.ops(st.roi.Accesses+st.failed, st.failed)
		rep, err := price(st)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		setupNS += st.setupNS
		roiNS += st.roiNS
		scanNS += st.scanNS
		accesses += st.roi.Accesses
		steps = append(steps, st.steps...)
		scans = append(scans, st.scans...)
		amat = append(amat, rep.AMAT.Total())
		power = append(power, rep.APPR.Total()-rep.APPR.Static)
		writes = append(writes, 1000*float64(rep.NVMWrites.Total())/float64(rep.Accesses))
		total = addStats(total, st.roi)
		heap = max(heap, st.heapMB)

		// A short trace is replayed again: the same seed must give the
		// same counts.
		if st.roi.Accesses <= chunkLen {
			again, err := replayStepped(rc, name, scale, buf, nil, int64(i))
			if err != nil {
				return nil, err
			}
			o.check(again.roi == st.roi, "%s replayed twice: stats %+v, then %+v", name, st.roi, again.roi)
			// The replay records no spans: the pair gives the tracing overhead.
			spannedNS += st.roiNS
			plainNS += again.roiNS
		}
		if rc.trace {
			ref, err := simulate(rc, name, scale, st.dram, st.nvm)
			if err != nil {
				return nil, fmt.Errorf("%s: simulator: %w", name, err)
			}
			o.check(ref.Accesses == st.roi.Accesses, "%s: simulator saw %d accesses, engine %d", name, ref.Accesses, st.roi.Accesses)
			n := float64(ref.Accesses)
			hitGap = append(hitGap, float64(st.roi.HitsDRAM())/n-float64(ref.HitsDRAM())/n)
			if ref.Faults > 0 {
				faultRatio = append(faultRatio, float64(st.roi.Faults)/float64(ref.Faults))
			}
		}
	}
	for _, xs := range [][]float64{amat, power, writes} {
		for i, x := range xs {
			o.check(x > 0, "%s: model output %g is not positive", tableIII[i], x)
		}
	}
	o.set("setup_s", float64(setupNS)/1e9)
	o.set("ops_per_s", float64(accesses)/(float64(roiNS)/1e9))
	o.setP50("op_p50_us", summarize(steps), 1e3)
	o.set("heap_mb", heap)
	o.set("tiered.engine.model_amat_ns", geoMean(amat))
	o.set("tiered.engine.model_dyn_power_nj", geoMean(power))
	o.set("tiered.engine.nvm_writes_per_kaccess", geoMean(writes))
	o.setEngineRatios(total, 0)
	if rc.trace {
		o.set("tiered.engine.serve_one_ns", float64(roiNS-scanNS)/float64(accesses))
		o.setP50("tiered.daemon.scan_once_us_p50", summarize(scans), 1e3)
		o.set("tiered.daemon.scan_share", float64(scanNS)/float64(roiNS))
		o.set("tiered.engine.dram_hit_ratio_minus_sim", meanF(hitGap))
		o.set("tiered.engine.faults_over_sim", meanF(faultRatio))
		if spannedNS > 0 {
			o.set("bench.trace_overhead", 1-float64(plainNS)/float64(spannedNS))
		}
	}
	return o, nil
}

func meanF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// addStats sums the event counts of two Stats deltas.
func addStats(a, b tiered.Stats) tiered.Stats {
	a.Accesses += b.Accesses
	a.ReadsDRAM += b.ReadsDRAM
	a.WritesDRAM += b.WritesDRAM
	a.ReadsNVM += b.ReadsNVM
	a.WritesNVM += b.WritesNVM
	a.Faults += b.Faults
	a.Promotions += b.Promotions
	a.Demotions += b.Demotions
	a.QueueDrops += b.QueueDrops
	a.Scans += b.Scans
	return a
}
