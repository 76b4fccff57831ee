package experiments

import (
	"fmt"

	"hybridmem/internal/results"
	"hybridmem/internal/runner"
)

// This file maps evaluation outcomes onto the runner's stable artifact
// schema. Artifacts never include wall-clock values, so the same
// (scale, seed) produces byte-identical JSON at any -parallel width — the
// property CI uses to diff results run over run.

// newArtifact builds an artifact header carrying the configuration's
// provenance (scale, seed, adaptive variant).
func newArtifact(tool, kind string, cfg Config) *results.Artifact {
	a := results.NewArtifact(tool, kind, cfg.Scale, cfg.Seed)
	a.Adaptive = cfg.Adaptive
	return a
}

// gridResult flattens one (workload, policy) cell.
func gridResult(run *WorkloadRun, id PolicyID, seed int64, idPrefix string) results.Result {
	return results.Result{
		ID:        idPrefix + run.Workload.Name + "/" + string(id),
		Workload:  run.Workload.Name,
		Policy:    string(id),
		Seed:      seed,
		Pages:     run.Pages,
		DRAMPages: run.DRAMPages,
		NVMPages:  run.NVMPages,
		Metrics:   runner.MetricsFrom(run.Report(id)),
	}
}

// GridArtifact exports the full evaluation grid — every workload under
// every standard policy — as one artifact.
func GridArtifact(tool string, cfg Config, runs []*WorkloadRun) *results.Artifact {
	a := newArtifact(tool, "grid", cfg)
	for _, run := range runs {
		for _, id := range StandardPolicies() {
			a.Add(gridResult(run, id, cfg.Seed, ""))
		}
	}
	return a
}

// ThresholdArtifact exports a threshold sweep: one result per pair, with
// the thresholds as params and the normalized headline ratios as values.
func ThresholdArtifact(tool, name string, cfg Config, points []ThresholdPoint) *results.Artifact {
	a := newArtifact(tool, "threshold", cfg)
	for _, p := range points {
		a.Add(results.Result{
			ID:       fmt.Sprintf("%s/thr%d-%d/proposed", name, p.ReadThreshold, p.WriteThreshold),
			Workload: name,
			Policy:   string(Proposed),
			Seed:     cfg.Seed,
			Params: map[string]float64{
				"read_threshold":  float64(p.ReadThreshold),
				"write_threshold": float64(p.WriteThreshold),
			},
			Metrics: runner.MetricsFrom(p.Proposed),
			Values: map[string]float64{
				"power_vs_dram_only":     p.PowerVsDRAM,
				"amat_vs_clock_dwf":      p.AMATVsDWF,
				"nvm_writes_vs_nvm_only": p.WritesVsNVMOnly,
				"promotions_per_access":  p.Proposed.Probabilities.PMigD,
			},
		})
	}
	return a
}

// DRAMArtifact exports a DRAM-share sweep.
func DRAMArtifact(tool, name string, cfg Config, points []DRAMPoint) *results.Artifact {
	a := newArtifact(tool, "dram", cfg)
	for _, p := range points {
		for _, id := range StandardPolicies() {
			r := gridResult(p.Run, id, cfg.Seed, fmt.Sprintf("dram%g/", p.DRAMFraction))
			r.Params = map[string]float64{"dram_fraction": p.DRAMFraction}
			if id == Proposed {
				r.Values = map[string]float64{
					"power_vs_dram_only": p.PowerVsDRAM,
					"amat_vs_clock_dwf":  p.AMATVsDWF,
				}
			}
			a.Add(r)
		}
	}
	return a
}

// PageFactorArtifact exports an access-granularity sweep.
func PageFactorArtifact(tool, name string, cfg Config, points []PageFactorPoint) *results.Artifact {
	a := newArtifact(tool, "pagefactor", cfg)
	for _, p := range points {
		for _, id := range StandardPolicies() {
			// Key by geometry, not PageFactor: distinct geometries can
			// share a page/line ratio and IDs must stay unique.
			r := gridResult(p.Run, id, cfg.Seed,
				fmt.Sprintf("pf%d-%d/", p.Geometry.PageSizeBytes, p.Geometry.LineSizeBytes))
			r.Params = map[string]float64{
				"page_size_bytes": float64(p.Geometry.PageSizeBytes),
				"line_size_bytes": float64(p.Geometry.LineSizeBytes),
				"page_factor":     float64(p.PageFactor),
			}
			if id == Proposed {
				r.Values = map[string]float64{
					"power_vs_dram_only": p.PowerVsDRAM,
					"amat_vs_clock_dwf":  p.AMATVsDWF,
				}
			}
			a.Add(r)
		}
	}
	return a
}

// AdaptiveArtifact exports the fixed-vs-adaptive threshold ablation.
func AdaptiveArtifact(tool, name string, cfg Config, cmp *AdaptiveComparison) *results.Artifact {
	a := newArtifact(tool, "adaptive", cfg)
	a.Add(results.Result{
		ID: name + "/fixed/proposed", Workload: name, Policy: string(Proposed),
		Seed: cfg.Seed, Metrics: runner.MetricsFrom(cmp.Fixed),
	})
	a.Add(results.Result{
		ID: name + "/adaptive/proposed", Workload: name, Policy: string(Proposed),
		Seed: cfg.Seed, Metrics: runner.MetricsFrom(cmp.Adaptive),
		Values: map[string]float64{
			"final_read_threshold":  float64(cmp.FinalReadThreshold),
			"final_write_threshold": float64(cmp.FinalWriteThreshold),
		},
	})
	return a
}

// MixArtifact exports a consolidated-server mix run.
func MixArtifact(tool string, cfg Config, run *MixedRun) *results.Artifact {
	a := newArtifact(tool, "mix", cfg)
	// RunMixed pins the adaptive variant off regardless of cfg.
	a.Adaptive = false
	for _, id := range StandardPolicies() {
		a.Add(results.Result{
			ID:        run.Label() + "/" + string(id),
			Workload:  run.Label(),
			Policy:    string(id),
			Seed:      cfg.Seed,
			Pages:     run.Pages,
			DRAMPages: run.DRAMPages,
			NVMPages:  run.NVMPages,
			Metrics:   runner.MetricsFrom(run.Reports[id]),
		})
	}
	return a
}

// WearLevelArtifact exports Start-Gap ablation results (no model metrics —
// the interesting outputs are the endurance scalars).
func WearLevelArtifact(tool, name string, cfg Config, periods []int, levels []*WearLevelResult) *results.Artifact {
	a := newArtifact(tool, "wearlevel", cfg)
	for i, res := range levels {
		a.Add(results.Result{
			ID:       fmt.Sprintf("%s/startgap%d", name, periods[i]),
			Workload: name,
			Seed:     cfg.Seed,
			Params:   map[string]float64{"period_lines": float64(periods[i])},
			Values: map[string]float64{
				"plain_imbalance":     res.PlainImbalance,
				"leveled_imbalance":   res.LeveledImbalance,
				"plain_worst_years":   res.PlainWorstYears,
				"leveled_worst_years": res.LeveledWorstYears,
				"gap_moves":           float64(res.GapMoves),
			},
		})
	}
	return a
}

// SeedsArtifact exports a seed-sensitivity study.
func SeedsArtifact(tool string, cfg Config, seeds []int64, study *SeedStudy) *results.Artifact {
	a := newArtifact(tool, "seeds", cfg)
	add := func(metric string, m MetricSummary) {
		a.Add(results.Result{
			ID:     "seeds/" + metric,
			Seed:   cfg.Seed,
			Params: map[string]float64{"seeds": float64(len(seeds))},
			Values: map[string]float64{
				"mean": m.Mean, "stddev": m.StdDev, "min": m.Min, "max": m.Max,
			},
		})
	}
	add("power_vs_dram_only", study.PowerVsDRAM)
	add("amat_vs_clock_dwf", study.AMATVsDWF)
	add("nvm_writes_vs_nvm_only", study.WritesVsNVMOnly)
	return a
}
