package main

import (
	"flag"
	"fmt"
	"io"

	"hybridmem/internal/core"
	"hybridmem/internal/experiments"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/policy"
	"hybridmem/internal/runner"
)

// setupRun is `hybridsim run`: one workload under one memory-management
// policy, printing the complete evaluation — event counts, the Table I
// probabilities, the AMAT breakdown (Eq. 1), the APPR breakdown (Eqs. 2-3),
// the NVM write sources and the endurance estimate.
func setupRun(fs *flag.FlagSet) func(io.Writer) error {
	sh := traceFlags(fs)
	wl := fs.String("workload", "canneal", "Table III workload name")
	pol := fs.String("policy", "proposed", "proposed, adaptive, clock-dwf, dram-cache, dram-only or nvm-only")
	readThr := fs.Int("read-threshold", 0, "proposed: read threshold (0 = default)")
	writeThr := fs.Int("write-threshold", 0, "proposed: write threshold (0 = default)")
	readPerc := fs.Float64("read-perc", 0, "proposed: read window fraction (0 = default)")
	writePerc := fs.Float64("write-perc", 0, "proposed: write window fraction (0 = default)")
	dramFrac := fs.Float64("dram-frac", 0.10, "hybrid DRAM share of total memory, strictly between 0 and 1")
	word := fs.Bool("word-granularity", false, "account accesses as 4B words (PageFactor 1024)")

	return func(out io.Writer) error {
		spec, err := lookupWorkload(*wl)
		if err != nil {
			return err
		}
		if *dramFrac <= 0 || *dramFrac >= 1 {
			return fmt.Errorf("-dram-frac %g: the hybrid needs both zones, so the share must be strictly between 0 and 1", *dramFrac)
		}
		cfg := sh.config()
		cfg.Sizing.DRAMFractionOfMem = *dramFrac
		if *word {
			cfg.Spec.Geometry = memspec.WordGeometry()
		}
		if *readThr > 0 {
			cfg.Core.ReadThreshold = *readThr
		}
		if *writeThr > 0 {
			cfg.Core.WriteThreshold = *writeThr
		}
		if *readPerc > 0 {
			cfg.Core.ReadPerc = *readPerc
		}
		if *writePerc > 0 {
			cfg.Core.WritePerc = *writePerc
		}
		id := experiments.PolicyID(*pol)
		if *pol == "adaptive" {
			id = "proposed-adaptive"
		}

		// The raw -scale, no MinPages floor: this is the one subcommand
		// whose header states the scale it ran at.
		tr := cfg.Cache.Get(spec, cfg.Scale, cfg.Seed)
		_, _, pages, err := tr.Materialize()
		if err != nil {
			return err
		}
		rs, err := runner.New(1).RunJobs([]runner.Job{{
			ID: *wl + "/" + *pol, Seed: cfg.Seed, Trace: tr, Spec: cfg.Spec,
			Build: func() (policy.Policy, error) { return experiments.BuildPolicy(id, cfg, pages) },
		}})
		if err != nil {
			return err
		}
		printRun(out, *wl, *pol, cfg, pages, rs[0])
		return nil
	}
}

func printRun(out io.Writer, wl, pol string, cfg experiments.Config, pages int, r runner.JobResult) {
	res, rep := r.Result, r.Report
	total := cfg.Sizing.TotalPages(pages)
	dram, nvm := cfg.Sizing.Partition(pages)
	fmt.Fprintf(out, "workload %s at scale %g: %d pages (%d KB footprint), %d accesses\n",
		wl, cfg.Scale, pages, pages*cfg.Spec.Geometry.PageSizeBytes/1024, res.Counts.Accesses)
	fmt.Fprintf(out, "memory: %d total frames", total)
	if pol != "dram-only" && pol != "nvm-only" {
		fmt.Fprintf(out, " (DRAM %d + NVM %d)", dram, nvm)
	}
	fmt.Fprintf(out, ", PageFactor %d\n\n", cfg.Spec.Geometry.PageFactor())

	c := res.Counts
	fmt.Fprintf(out, "policy %s\n", r.Policy.Name())
	fmt.Fprintf(out, "  hits:        DRAM %d (R %d / W %d), NVM %d (R %d / W %d)\n",
		c.HitsDRAM(), c.ReadsDRAM, c.WritesDRAM, c.HitsNVM(), c.ReadsNVM, c.WritesNVM)
	fmt.Fprintf(out, "  faults:      %d (to DRAM %d, to NVM %d)\n", c.Faults, c.FaultsToDRAM, c.FaultsToNVM)
	fmt.Fprintf(out, "  migrations:  %d promotions, %d demotions (%d fault-forced, %d promotion-forced)\n",
		c.Promotions, c.Demotions, c.DemotionsFault, c.DemotionsPromo)
	fmt.Fprintf(out, "  evictions:   %d from DRAM, %d from NVM\n\n", c.EvictionsDRAM, c.EvictionsNVM)

	pr := rep.Probabilities
	fmt.Fprintf(out, "Table I probabilities:\n")
	fmt.Fprintf(out, "  PHitDRAM %.4f  PHitNVM %.4f  PMiss %.6f\n", pr.PHitDRAM, pr.PHitNVM, pr.PMiss)
	fmt.Fprintf(out, "  PMigD %.6f  PMigN %.6f (stalling %.6f)\n\n", pr.PMigD, pr.PMigN, pr.PMigNStall)

	a := rep.AMAT
	fmt.Fprintf(out, "AMAT (Eq. 1): %.1f ns/access\n", a.Total())
	fmt.Fprintf(out, "  hits %.1f (DRAM %.1f + NVM %.1f), disk %.1f, migrations %.1f\n\n",
		a.HitDRAM+a.HitNVM, a.HitDRAM, a.HitNVM, a.Miss, a.Migrations())

	e := rep.APPR
	fmt.Fprintf(out, "APPR (Eqs. 2-3): %.2f nJ/access\n", e.Total())
	fmt.Fprintf(out, "  static %.2f, dynamic %.2f, page-fault %.2f, migration %.2f\n\n",
		e.Static, e.Dynamic(), e.PageFault(), e.Migration())

	w := rep.NVMWrites
	fmt.Fprintf(out, "NVM writes (lines): %d total = %d requests + %d page-fault + %d migration\n",
		w.Total(), w.Requests, w.PageFault, w.Migration)

	if res.NVMPages > 0 && res.NVMWear.Total > 0 {
		if end, err := model.EvaluateEndurance(res, cfg.Spec); err == nil {
			fmt.Fprintf(out, "endurance: %.1f writes/s; lifetime %.1f years (ideal leveling), %.1f years (worst frame)\n",
				end.LineWritesPerSec, end.LifetimeYearsLeveled, end.LifetimeYearsWorstFrame)
			fmt.Fprintf(out, "wear imbalance (max/mean frame): %.2f\n",
				model.WearImbalance(res.NVMWear, res.NVMPages))
		}
	}

	if a, ok := r.Policy.(*core.Adaptive); ok {
		r, w := a.Thresholds()
		fmt.Fprintf(out, "adaptive controller: final thresholds %d/%d after %d adjustments\n",
			r, w, a.Adjustments)
	}
}
