package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/grid.golden.json with the artifact this run builds")

const gridGolden = "testdata/grid.golden.json"

// TestGridArtifactGolden pins the offline evaluation exactly: the
// hybridmem.results/v1 grid artifact at the configuration the repo benchmark
// times (Scale 0.01, MinPages 64, seed 1) must match the committed file byte
// for byte. The artifact carries no timings and is identical at any
// parallelism, so a refactor of the simulator leaves the file untouched and a
// change of policy behaviour shows as a diff (regenerate with -update).
func TestGridArtifactGolden(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale, cfg.MinPages, cfg.Seed, cfg.Parallel = 0.01, 64, 1, 1
	runs, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := GridArtifact("figures", cfg, runs).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(gridGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(gridGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("grid artifact differs from %s (rerun with -update if the change is intended)", gridGolden)
	}
}
