package main

import (
	"fmt"
	"runtime"
	"time"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/experiments"
	"hybridmem/internal/model"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// tableIII is the paper's twelve workloads, in the order RunAll returns them.
var tableIII = []string{
	"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret",
	"fluidanimate", "freqmine", "raytrace", "streamcluster", "vips", "x264",
}

const (
	// A timed grid is RunAll at paperScale with footprints floored at
	// paperMinPages: 19 M simulated accesses, about a second and 0.2 GB.
	// paperGridsPerSecond of them are timed for each second of -seconds,
	// each whole, after one more in set-up, and the median is reported. A
	// larger grid would be a truer copy of the paper's evaluation and a
	// worse clock: this sandbox prices fresh page faults several times
	// higher in some minutes than in others, and one grid of 0.8 GB reads
	// 17 M or 12.5 M ops/s depending on the minute (README).
	paperScale          = 0.01
	paperMinPages       = 64
	paperGridsPerSecond = 0.8
	// paperPrefaultMB of heap are touched and freed before set-up, so the
	// set-up grid allocates from mapped pages: it reads 1.00 s with that and
	// 1.1 s or 1.6 s without, again by the minute.
	paperPrefaultMB = 320
	// The figure numbers of a traced run come from a grid at the scale the
	// issue fixed for the paper's result, evaluated one workload at a time
	// so that only one trace is live (0.64 GB at the peak, not 1.8 GB).
	paperFigureScale    = 0.1
	paperFigureMinPages = 256
)

// prefault touches mb MiB of fresh heap and frees them.
func prefault(mb int) {
	b := make([]byte, mb<<20)
	for i := 0; i < len(b); i += pageBytes {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	runtime.GC()
}

// flooredScale is the scale RunAll generates one workload at: the run's
// scale, floored so the footprint keeps minPages.
func flooredScale(spec workload.Spec, scale float64, minPages int) float64 {
	if float64(spec.Pages())*scale < float64(minPages) {
		scale = float64(minPages) / float64(spec.Pages())
	}
	return min(scale, 1)
}

func paperConfig(rc *runCtx, scale float64, minPages, parallel int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale, cfg.MinPages, cfg.Parallel, cfg.Seed = scale, minPages, parallel, rc.seed
	return cfg
}

// timedGrid is RunAll and the three figures, timed whole.
func timedGrid(cfg experiments.Config) ([]*experiments.WorkloadRun, gmeans, time.Duration, error) {
	t0 := time.Now()
	runs, err := experiments.RunAll(cfg)
	if err != nil {
		return nil, gmeans{}, 0, err
	}
	g, err := figureGMeans(runs)
	return runs, g, time.Since(t0), err
}

// gmeans are the three figure numbers the paper argues with.
type gmeans struct{ power, writes, amat float64 }

// figureGMeans builds figures 4a, 4b and 4c and reads the proposed scheme's
// G-Mean column off each.
func figureGMeans(runs []*experiments.WorkloadRun) (gmeans, error) {
	var vals [3]float64
	for i, id := range []string{"fig4a", "fig4b", "fig4c"} {
		fig, err := experiments.BuildFigure(id, runs)
		if err != nil {
			return gmeans{}, err
		}
		col, ok := fig.ColumnIndex("G-Mean")
		if !ok {
			return gmeans{}, fmt.Errorf("%s has no G-Mean column", id)
		}
		group := len(fig.Groups) - 1 // the proposed scheme's bars come last
		if name := fig.Groups[group].Name; name != string(experiments.Proposed) {
			return gmeans{}, fmt.Errorf("%s: last group is %q, want %q", id, name, experiments.Proposed)
		}
		vals[i] = fig.Total(group, col)
	}
	return gmeans{power: vals[0], writes: vals[1], amat: vals[2]}, nil
}

// simulated counts the accesses a grid simulated: each policy's warm-up
// pass (every page once) and its ROI.
func simulated(runs []*experiments.WorkloadRun) int64 {
	var n int64
	for _, r := range runs {
		for _, res := range r.Results {
			n += res.Counts.Accesses + int64(r.Pages)
		}
	}
	return n
}

// runPaperEval is paper_eval: the twelve Table III workloads under the four
// policies, then figures 4a-c.
func runPaperEval(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	// One worker: a second one on this 2-CPU box buys at most a third more
	// throughput and adds seconds of system time whose run-to-run spread
	// hides a 10% change (README, "Where this differs"). The traced run
	// measures Parallel 2.
	scale, grids := paperScale, count(rc, paperGridsPerSecond)
	if rc.smoke {
		scale /= 16
	}
	cfg := paperConfig(rc, scale, rc.size(paperMinPages), 1)
	o.params = map[string]any{
		"grid":  fmt.Sprintf("12 Table III workloads x 4 policies, then figures 4a, 4b, 4c; %d times", grids),
		"scale": cfg.Scale, "min_pages": cfg.MinPages, "parallel": cfg.Parallel,
		"setup":   fmt.Sprintf("one more grid, the process's first, on %d MiB of heap touched beforehand", rc.size(paperPrefaultMB)),
		"figures": fmt.Sprintf("traced run: Scale %g, MinPages %d, one workload at a time", paperFigureScale, paperFigureMinPages),
	}
	prefault(rc.size(paperPrefaultMB))
	runs, ref, first, err := timedGrid(cfg)
	if err != nil {
		return nil, err
	}
	o.set("setup_s", first.Seconds())

	var durs []int64
	for i := 0; i < grids; i++ {
		again, g, dt, err := timedGrid(cfg)
		if err != nil {
			return nil, err
		}
		durs = append(durs, int64(dt))
		o.check(g == ref, "grid %d gives G-Means %+v, set-up's gave %+v", i, g, ref)
		runs = again
	}
	grid := summarize(durs)
	accesses := simulated(runs)
	o.ops(accesses*int64(grids), 0)
	o.check(len(runs) == len(tableIII), "RunAll returned %d workloads, want %d", len(runs), len(tableIII))
	o.check(ref.power > 0 && ref.writes > 0 && ref.amat > 0, "figure G-Means %+v are not all positive", ref)
	o.set("ops_per_s", float64(accesses)/(grid.P50/1e9)) // per grid, at the median grid's pace
	o.setP50("op_p50_us", grid, 1e3)
	o.set("heap_mb", heapMB())
	runtime.KeepAlive(runs)

	if rc.trace {
		if err := paperLayers(rc, o, cfg, ref, accesses, time.Duration(grid.P50)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// layerTimes is where a decomposed evaluation spent its time.
type layerTimes struct {
	genNS, genAccesses, evalNS, evals int64
	simNS, simAccesses                map[experiments.PolicyID]int64
}

// evaluate is what RunAll does for one workload, taken apart into its
// generator, simulator and model calls, each in a span under parent.
func evaluate(rc *runCtx, cfg experiments.Config, name string, tr *tracer, parent int32, req int64, lt *layerTimes) (*experiments.WorkloadRun, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("no Table III workload %q", name)
	}
	g0 := tr.now()
	gen, err := workload.NewGenerator(spec, flooredScale(spec, cfg.Scale, cfg.MinPages), rc.seed)
	if err != nil {
		return nil, err
	}
	warm := drain(gen.WarmupSource(rc.seed + 1))
	roi := drain(gen)
	g1 := tr.now()
	tr.add("workload.generate", g0, g1, parent, req)
	lt.genNS += g1 - g0
	lt.genAccesses += int64(len(warm) + len(roi))

	pages := gen.Pages()
	total := cfg.Sizing.TotalPages(pages)
	dram, nvm := cfg.Sizing.Partition(pages)
	run := &experiments.WorkloadRun{
		Workload: spec, Pages: pages, DRAMPages: dram, NVMPages: nvm,
		Reports:  map[experiments.PolicyID]*model.Report{},
		Results:  map[experiments.PolicyID]*sim.Result{},
		Policies: map[experiments.PolicyID]policy.Policy{},
	}
	for _, id := range experiments.StandardPolicies() {
		var pol policy.Policy
		switch id {
		case experiments.DRAMOnly:
			pol, err = policy.NewDRAMOnly(total)
		case experiments.NVMOnly:
			pol, err = policy.NewNVMOnly(total)
		case experiments.ClockDWF:
			pol, err = clockdwf.New(dram, nvm, cfg.DWF)
		case experiments.Proposed:
			pol, err = core.New(dram, nvm, cfg.Core)
		}
		if err != nil {
			return nil, err
		}
		s0 := tr.now()
		if _, err := sim.Run(trace.NewSliceSource(warm), pol, cfg.Spec, sim.Options{}); err != nil {
			return nil, err
		}
		res, err := sim.Run(trace.NewSliceSource(roi), pol, cfg.Spec, sim.Options{})
		if err != nil {
			return nil, err
		}
		s1 := tr.now()
		tr.add("sim.run."+string(id), s0, s1, parent, req)
		lt.simNS[id] += s1 - s0
		lt.simAccesses[id] += int64(len(warm) + len(roi))

		rep, err := model.Evaluate(res, cfg.Spec)
		if err != nil {
			return nil, err
		}
		e1 := tr.now()
		tr.add("model.evaluate", s1, e1, parent, req)
		lt.evalNS += e1 - s1
		lt.evals++
		run.Results[id], run.Reports[id], run.Policies[id] = res, rep, pol
	}
	return run, nil
}

func newLayerTimes() *layerTimes {
	return &layerTimes{simNS: map[experiments.PolicyID]int64{}, simAccesses: map[experiments.PolicyID]int64{}}
}

// paperLayers is the traced run: the same grid through RunAll with one
// worker per load thread, then taken apart workload by workload, which must
// reproduce RunAll's figure numbers exactly; then the figure numbers at the
// paper's scale, through the same decomposition.
func paperLayers(rc *runCtx, o *outcome, cfg experiments.Config, ref gmeans, accesses int64, serialGrid time.Duration) error {
	tr := rc.tracer(4096)
	serial := serialGrid.Nanoseconds()

	par := cfg
	par.Parallel = loadThreads
	t0 := tr.now()
	if _, err := experiments.RunAll(par); err != nil {
		return err
	}
	t1 := tr.now()
	tr.add("experiments.run_all_parallel", t0, t1, -1, 0)
	o.set("runner.parallel_speedup", float64(serial)/float64(t1-t0))

	lt := newLayerTimes()
	root := tr.add("paper_eval.decomposed", tr.now(), 0, -1, 0)
	runs, got, figNS, err := decomposedGrid(rc, cfg, tr, root, lt)
	if err != nil {
		return err
	}
	decomposed := tr.spans[root].End - tr.spans[root].Start

	o.check(got == ref, "decomposed grid gives G-Means %+v, RunAll gave %+v", got, ref)
	o.check(simulated(runs) == accesses, "decomposed grid simulated %d accesses, RunAll %d", simulated(runs), accesses)
	o.set("workload.gen_ns_per_access", float64(lt.genNS)/float64(lt.genAccesses))
	for id, ns := range lt.simNS {
		o.set("sim.ns_per_access."+string(id), float64(ns)/float64(lt.simAccesses[id]))
	}
	o.set("model.eval_us", float64(lt.evalNS)/float64(lt.evals)/1e3)
	o.set("experiments.figures_ms", float64(figNS)/1e6)
	o.set("bench.trace_overhead", 1-float64(serial)/float64(decomposed))

	figCfg := cfg
	if !rc.smoke {
		figCfg.Scale, figCfg.MinPages = paperFigureScale, paperFigureMinPages
	}
	root = tr.add("paper_eval.figures_at_scale", tr.now(), 0, -1, 0)
	_, fig, _, err := decomposedGrid(rc, figCfg, tr, root, newLayerTimes())
	if err != nil {
		return err
	}
	o.check(fig.power > 0 && fig.writes > 0 && fig.amat > 0, "figure G-Means %+v at scale %g are not all positive", fig, figCfg.Scale)
	o.set("experiments.power_vs_dram_only", fig.power)
	o.set("experiments.nvm_writes_vs_nvm_only", fig.writes)
	o.set("experiments.amat_vs_clock_dwf", fig.amat)
	return nil
}

// decomposedGrid evaluates the twelve workloads one at a time under the span
// root, builds the figures, and ends root. It returns the runs, the figure
// numbers and the time the figures took.
func decomposedGrid(rc *runCtx, cfg experiments.Config, tr *tracer, root int32, lt *layerTimes) ([]*experiments.WorkloadRun, gmeans, int64, error) {
	runs := make([]*experiments.WorkloadRun, 0, len(tableIII))
	for i, name := range tableIII {
		run, err := evaluate(rc, cfg, name, tr, root, int64(i), lt)
		if err != nil {
			return nil, gmeans{}, 0, fmt.Errorf("%s: %w", name, err)
		}
		runs = append(runs, run)
	}
	f0 := tr.now()
	g, err := figureGMeans(runs)
	f1 := tr.now()
	tr.add("experiments.figures", f0, f1, root, 0)
	tr.setEnd(root, f1)
	return runs, g, f1 - f0, err
}

// drain materializes a source.
func drain(src trace.Source) []trace.Record {
	var recs []trace.Record
	for {
		r, ok := src.Next()
		if !ok {
			return recs
		}
		recs = append(recs, r)
	}
}
