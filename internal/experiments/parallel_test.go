package experiments

import (
	"bytes"
	"testing"

	"hybridmem/internal/runner"
	"hybridmem/internal/workload"
)

// TestGridArtifactParallelInvariance is the acceptance criterion end to
// end: the same seed produces byte-identical JSON artifacts at any
// -parallel width.
func TestGridArtifactParallelInvariance(t *testing.T) {
	encode := func(parallel int) []byte {
		cfg := testConfig()
		cfg.Parallel = parallel
		runs, err := RunAll(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := GridArtifact("figures", cfg, runs).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := encode(1)
	if par := encode(8); !bytes.Equal(serial, par) {
		t.Error("grid artifact differs between -parallel 1 and -parallel 8")
	}
}

func TestThresholdArtifactParallelInvariance(t *testing.T) {
	pairs := [][2]int{{4, 6}, {96, 128}}
	encode := func(parallel int) []byte {
		cfg := testConfig()
		cfg.Parallel = parallel
		points, err := ThresholdSweep("bodytrack", cfg, pairs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ThresholdArtifact("sweep", "bodytrack", cfg, points).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(encode(1), encode(4)) {
		t.Error("threshold artifact differs between -parallel 1 and -parallel 4")
	}
}

// TestSharedCacheGeneratesOncePerSpec checks the trace-cache contract at
// the harness level: a grid plus a characterization pass over the same
// cache generate each workload exactly once.
func TestSharedCacheGeneratesOncePerSpec(t *testing.T) {
	cfg := testConfig()
	cfg.Cache = runner.NewTraceCache()
	if _, err := RunAll(cfg); err != nil {
		t.Fatal(err)
	}
	n := int64(len(workload.Names()))
	if got := cfg.Cache.Generations(); got != n {
		t.Fatalf("grid generated %d traces, want %d", got, n)
	}
	// Table III characterization and the architecture study replay the
	// cached traces instead of regenerating.
	if _, err := Table3Measure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := ArchAll([]string{"ferret", "canneal"}, cfg); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Cache.Generations(); got != n {
		t.Errorf("after table3+arch: %d generations, want still %d", got, n)
	}
}

// TestThresholdSweepSharesBaselines checks that a sweep's trace is
// generated once regardless of the number of points.
func TestThresholdSweepTraceReuse(t *testing.T) {
	cfg := testConfig()
	cfg.Cache = runner.NewTraceCache()
	if _, err := ThresholdSweep("bodytrack", cfg, DefaultThresholdPairs()); err != nil {
		t.Fatal(err)
	}
	if got := cfg.Cache.Generations(); got != 1 {
		t.Errorf("8-point sweep generated %d traces, want 1", got)
	}
}

func TestRunSeedsWithDerivedSeeds(t *testing.T) {
	cfg := testConfig()
	seeds := []int64{
		runner.DeriveSeed(cfg.Seed, "seed-study/0"),
		runner.DeriveSeed(cfg.Seed, "seed-study/1"),
	}
	study, err := RunSeeds(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if study.Seeds != 2 {
		t.Errorf("study.Seeds = %d", study.Seeds)
	}
	if study.AMATVsDWF.Mean <= 0 || study.PowerVsDRAM.Mean <= 0 {
		t.Errorf("implausible means: %+v", study)
	}
}
