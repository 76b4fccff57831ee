package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"hybridmem/internal/experiments"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/report"
	"hybridmem/internal/runner"
)

// setupSweep is `hybridsim sweep`: the sensitivity studies around the
// paper's design choices — migration thresholds (the Section V-B raytrace
// discussion), the DRAM share of the hybrid memory, the access-granularity
// PageFactor (Section II), the fixed-vs-adaptive threshold ablation (the
// paper's stated future work), Start-Gap wear leveling, consolidated-server
// mixes (-workload a,b,...) and seed sensitivity (-seeds N).
func setupSweep(fs *flag.FlagSet) func(io.Writer) error {
	sh := execFlags(fs)
	kind := fs.String("kind", "threshold", "threshold, dram, pagefactor, adaptive, wearlevel, seeds or mix (workload=a,b,...)")
	wl := fs.String("workload", "raytrace", "Table III workload name")
	seedCount := fs.Int("seeds", 5, "number of derived seeds for -kind seeds")

	return func(stdout io.Writer) error {
		cfg := sh.config()
		return report.WithOutput(stdout, sh.outPath, func(w io.Writer) error {
			switch *kind {
			case "threshold":
				return sweepThreshold(w, *wl, cfg, sh.jsonOut)
			case "dram":
				return sweepDRAM(w, *wl, cfg, sh.jsonOut)
			case "pagefactor":
				return sweepPageFactor(w, *wl, cfg, sh.jsonOut)
			case "adaptive":
				return sweepAdaptive(w, *wl, cfg, sh.jsonOut)
			case "wearlevel":
				return sweepWearLevel(w, *wl, cfg, sh.jsonOut)
			case "mix":
				return sweepMix(w, *wl, cfg, sh.jsonOut)
			case "seeds":
				return sweepSeeds(w, cfg, *seedCount, sh.jsonOut)
			default:
				return fmt.Errorf("unknown kind %q", *kind)
			}
		})
	}
}

func sweepThreshold(w io.Writer, wl string, cfg experiments.Config, jsonOut bool) error {
	points, err := experiments.ThresholdSweep(wl, cfg, experiments.DefaultThresholdPairs())
	if err != nil {
		return err
	}
	if jsonOut {
		return experiments.ThresholdArtifact("sweep", wl, cfg, points).Write(w)
	}
	t := &report.Table{
		Title: fmt.Sprintf("Threshold sensitivity on %s (Section V-B)", wl),
		Headers: []string{"read-thr", "write-thr", "PMigD", "power vs DRAM",
			"AMAT vs CLOCK-DWF", "NVM writes vs NVM-only"},
	}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d", p.ReadThreshold),
			fmt.Sprintf("%d", p.WriteThreshold),
			fmt.Sprintf("%.6f", p.Proposed.Probabilities.PMigD),
			fmt.Sprintf("%.3f", p.PowerVsDRAM),
			fmt.Sprintf("%.3f", p.AMATVsDWF),
			fmt.Sprintf("%.3f", p.WritesVsNVMOnly))
	}
	return t.Write(w)
}

func sweepDRAM(w io.Writer, wl string, cfg experiments.Config, jsonOut bool) error {
	points, err := experiments.DRAMSweep(wl, cfg,
		[]float64{0.05, 0.10, 0.20, 0.30, 0.50})
	if err != nil {
		return err
	}
	if jsonOut {
		return experiments.DRAMArtifact("sweep", wl, cfg, points).Write(w)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("DRAM share sweep on %s (paper fixes 10%%)", wl),
		Headers: []string{"DRAM share", "PHitDRAM", "power vs DRAM-only", "AMAT vs CLOCK-DWF"},
	}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%.0f%%", p.DRAMFraction*100),
			fmt.Sprintf("%.3f", p.Run.Report(experiments.Proposed).Probabilities.PHitDRAM),
			fmt.Sprintf("%.3f", p.PowerVsDRAM),
			fmt.Sprintf("%.3f", p.AMATVsDWF))
	}
	return t.Write(w)
}

func sweepPageFactor(w io.Writer, wl string, cfg experiments.Config, jsonOut bool) error {
	points, err := experiments.PageFactorSweep(wl, cfg, []memspec.Geometry{
		{PageSizeBytes: 4096, LineSizeBytes: 64},
		{PageSizeBytes: 4096, LineSizeBytes: 16},
		{PageSizeBytes: 4096, LineSizeBytes: 4},
		{PageSizeBytes: 8192, LineSizeBytes: 64},
	})
	if err != nil {
		return err
	}
	if jsonOut {
		return experiments.PageFactorArtifact("sweep", wl, cfg, points).Write(w)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Access-granularity (PageFactor) sweep on %s (Section II)", wl),
		Headers: []string{"page", "line", "PageFactor", "power vs DRAM-only", "AMAT vs CLOCK-DWF"},
	}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%dB", p.Geometry.PageSizeBytes),
			fmt.Sprintf("%dB", p.Geometry.LineSizeBytes),
			fmt.Sprintf("%d", p.PageFactor),
			fmt.Sprintf("%.3f", p.PowerVsDRAM),
			fmt.Sprintf("%.3f", p.AMATVsDWF))
	}
	return t.Write(w)
}

func sweepAdaptive(w io.Writer, wl string, cfg experiments.Config, jsonOut bool) error {
	cmp, err := experiments.CompareAdaptive(wl, cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return experiments.AdaptiveArtifact("sweep", wl, cfg, cmp).Write(w)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Fixed vs adaptive thresholds on %s (paper's future work)", wl),
		Headers: []string{"variant", "APPR (nJ)", "AMAT hits+mig (ns)", "NVM writes", "PMigD"},
	}
	for _, v := range []struct {
		name string
		rep  *model.Report
	}{
		{"fixed", cmp.Fixed},
		{"adaptive", cmp.Adaptive},
	} {
		t.AddRow(v.name,
			fmt.Sprintf("%.2f", v.rep.APPR.Total()),
			hitsAndMigrations(v.rep),
			fmt.Sprintf("%d", v.rep.NVMWrites.Total()),
			fmt.Sprintf("%.6f", v.rep.Probabilities.PMigD))
	}
	if err := t.Write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "adaptive controller settled at thresholds %d/%d\n",
		cmp.FinalReadThreshold, cmp.FinalWriteThreshold)
	return nil
}

func sweepWearLevel(w io.Writer, wl string, cfg experiments.Config, jsonOut bool) error {
	periods := []int{64, 16, 4}
	results := make([]*experiments.WearLevelResult, 0, len(periods))
	for _, period := range periods {
		res, err := experiments.WearLevelAblation(wl, cfg, period)
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	if jsonOut {
		return experiments.WearLevelArtifact("sweep", wl, cfg, periods, results).Write(w)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Start-Gap wear leveling on %s (NVM-only placement)", wl),
		Headers: []string{"period (lines)", "imbalance", "worst-frame lifetime (y)", "gap moves"},
	}
	t.AddRow("off", fmt.Sprintf("%.2f", results[0].PlainImbalance),
		fmt.Sprintf("%.2f", results[0].PlainWorstYears), "0")
	for i, period := range periods {
		t.AddRow(fmt.Sprintf("%d", period),
			fmt.Sprintf("%.2f", results[i].LeveledImbalance),
			fmt.Sprintf("%.2f", results[i].LeveledWorstYears),
			fmt.Sprintf("%d", results[i].GapMoves))
	}
	return t.Write(w)
}

func sweepMix(w io.Writer, wl string, cfg experiments.Config, jsonOut bool) error {
	names := strings.Split(wl, ",")
	run, err := experiments.RunMixed(names, cfg)
	if err != nil {
		return err
	}
	if jsonOut {
		return experiments.MixArtifact("sweep", cfg, run).Write(w)
	}
	t := &report.Table{
		Title: fmt.Sprintf("Consolidated-server mix %s (DRAM %d + NVM %d frames)",
			run.Label(), run.DRAMPages, run.NVMPages),
		Headers: []string{"policy", "AMAT hits+mig (ns)", "power (nJ)", "NVM writes", "DRAM hit ratio"},
	}
	for _, id := range experiments.StandardPolicies() {
		t.AddRow(append([]string{string(id)}, comparisonCells(run.Reports[id])...)...)
	}
	return t.Write(w)
}

func sweepSeeds(w io.Writer, cfg experiments.Config, count int, jsonOut bool) error {
	// Derive the study's seeds deterministically from the base seed, so
	// one -seed value names the whole experiment. (RunSeeds rejects a
	// count below 2, negative ones included.)
	var seeds []int64
	for i := 0; i < count; i++ {
		seeds = append(seeds, runner.DeriveSeed(cfg.Seed, fmt.Sprintf("seed-study/%d", i)))
	}
	study, err := experiments.RunSeeds(cfg, seeds)
	if err != nil {
		return err
	}
	if jsonOut {
		return experiments.SeedsArtifact("sweep", cfg, seeds, study).Write(w)
	}
	t := &report.Table{
		Title:   fmt.Sprintf("Seed sensitivity of the G-Mean headline ratios (%d derived seeds)", count),
		Headers: []string{"metric", "mean ± stddev [min, max]"},
	}
	t.AddRow("power vs DRAM-only", study.PowerVsDRAM.String())
	t.AddRow("AMAT vs CLOCK-DWF", study.AMATVsDWF.String())
	t.AddRow("NVM writes vs NVM-only", study.WritesVsNVMOnly.String())
	return t.Write(w)
}
