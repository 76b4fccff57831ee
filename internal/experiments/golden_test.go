package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"hybridmem/internal/model"
	"hybridmem/internal/results"
	"hybridmem/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden.json files with the artifacts this run builds")

const (
	gridGolden       = "testdata/grid.golden.json"
	extensionsGolden = "testdata/extensions.golden.json"
)

// goldenConfig is the configuration the repo benchmark times.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale, cfg.MinPages, cfg.Seed, cfg.Parallel = 0.01, 64, 1, 1
	return cfg
}

// compareGolden checks an encoded artifact against its committed file, or
// rewrites the file under -update.
func compareGolden(t *testing.T, path string, a *results.Artifact) {
	t.Helper()
	got, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("artifact differs from %s (rerun with -update if the change is intended)", path)
	}
}

// TestGridArtifactGolden pins the offline evaluation exactly: the
// hybridmem.results/v1 grid artifact at the configuration the repo benchmark
// times (Scale 0.01, MinPages 64, seed 1) must match the committed file byte
// for byte. The artifact carries no timings and is identical at any
// parallelism, so a refactor of the simulator leaves the file untouched and a
// change of policy behaviour shows as a diff (regenerate with -update).
func TestGridArtifactGolden(t *testing.T) {
	cfg := goldenConfig()
	runs, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, gridGolden, GridArtifact("figures", cfg, runs))
}

// TestExtensionsGolden pins the extension studies that survive beyond the
// paper's own grid — architecture comparison, Start-Gap wear levelling, a
// consolidated mix and the adaptive-threshold ablation — the same way: one
// artifact, same configuration, byte for byte.
func TestExtensionsGolden(t *testing.T) {
	cfg := goldenConfig()
	cfg.Cache = runner.NewTraceCache()
	a := newArtifact("experiments", "extensions", cfg)

	rows, err := ArchAll([]string{"ferret", "canneal"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		for _, arch := range []struct {
			name string
			rep  *model.Report
		}{
			{"proposed", row.Proposed}, {"dram-cache", row.Cache},
			{"static-partition", row.Static}, {"clock-dwf", row.DWF}, {"dram-only", row.DRAM},
		} {
			a.Add(results.Result{
				ID: "arch/" + row.Workload + "/" + arch.name, Workload: row.Workload,
				Policy: arch.name, Seed: cfg.Seed, Metrics: runner.MetricsFrom(arch.rep),
			})
		}
		a.Add(results.Result{
			ID: "arch/" + row.Workload + "/clean-drops", Workload: row.Workload, Seed: cfg.Seed,
			Values: map[string]float64{"cache_clean_drops": float64(row.CacheCleanDrops)},
		})
	}

	periods := []int{64, 16, 4}
	levels := make([]*WearLevelResult, len(periods))
	for i, period := range periods {
		if levels[i], err = WearLevelAblation("vips", cfg, period); err != nil {
			t.Fatal(err)
		}
	}
	a.Results = append(a.Results, WearLevelArtifact("sweep", "vips", cfg, periods, levels).Results...)

	mix, err := RunMixed([]string{"bodytrack", "ferret"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Results = append(a.Results, MixArtifact("sweep", cfg, mix).Results...)

	cmp, err := CompareAdaptive("raytrace", cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Results = append(a.Results, AdaptiveArtifact("sweep", "raytrace", cfg, cmp).Results...)

	compareGolden(t, extensionsGolden, a)
}
