// Benchmark harness: micro-benchmarks of every policy and substrate on the
// simulator's hot path, and ablation benches for the extension studies. The
// paper's tables and figures are not here: bench/ (the paper_eval workload)
// measures regenerating them end to end, from outside the module.
//
// The ablation benches run at a reduced trace scale (the experiments' shapes
// are scale-stable); `hybridsim sweep` and `hybridsim figures` regenerate
// everything at any scale including 1.0.
package hybridmem

import (
	"testing"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/dramcache"
	"hybridmem/internal/experiments"
	"hybridmem/internal/lru"
	"hybridmem/internal/memspec"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// benchCfg is the reduced-scale configuration the ablation benches run at.
func benchCfg() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.002
	cfg.MinPages = 128
	return cfg
}

// --- ablation benches (design choices) ---

// BenchmarkAblationThresholds sweeps the migration thresholds on raytrace
// (the Section V-B sensitivity discussion).
func BenchmarkAblationThresholds(b *testing.B) {
	cfg := benchCfg()
	pairs := [][2]int{{8, 12}, {96, 128}, {256, 384}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThresholdSweep("raytrace", cfg, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAdaptive compares fixed and adaptive thresholds.
func BenchmarkAblationAdaptive(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompareAdaptive("raytrace", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPageFactor sweeps the migration granularity (Section II).
func BenchmarkAblationPageFactor(b *testing.B) {
	cfg := benchCfg()
	geoms := []memspec.Geometry{memspec.DefaultGeometry(), memspec.WordGeometry()}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PageFactorSweep("freqmine", cfg, geoms); err != nil {
			b.Fatal(err)
		}
	}
}

// --- policy micro-benchmarks (ns per memory access) ---

// benchTrace builds a reusable skewed trace.
func benchTrace(n int) []trace.Record {
	spec, _ := workload.ByName("ferret")
	g, err := workload.NewGenerator(spec, 0.01, 7)
	if err != nil {
		panic(err)
	}
	recs, err := trace.Materialize(trace.Limit(g, n), 0)
	if err != nil && err != trace.ErrTruncated {
		panic(err)
	}
	return recs
}

func policyBench(b *testing.B, build func() policy.Policy) {
	recs := benchTrace(200000)
	spec := memspec.Default()
	b.ResetTimer()
	total := int64(0)
	for i := 0; i < b.N; i++ {
		p := build()
		res, err := sim.Run(trace.NewSliceSource(recs), p, spec, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		total += res.Counts.Accesses
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Maccesses/s")
}

// BenchmarkPolicyProposed measures the proposed scheme's access path.
func BenchmarkPolicyProposed(b *testing.B) {
	policyBench(b, func() policy.Policy {
		p, _ := core.New(12, 117, core.DefaultConfig())
		return p
	})
}

// BenchmarkPolicyAdaptive measures the adaptive variant's access path.
func BenchmarkPolicyAdaptive(b *testing.B) {
	policyBench(b, func() policy.Policy {
		p, _ := core.NewAdaptive(12, 117, core.DefaultConfig(), core.DefaultAdaptiveConfig())
		return p
	})
}

// BenchmarkPolicyClockDWF measures CLOCK-DWF's access path.
func BenchmarkPolicyClockDWF(b *testing.B) {
	policyBench(b, func() policy.Policy {
		p, _ := clockdwf.New(12, 117, clockdwf.DefaultConfig())
		return p
	})
}

// BenchmarkPolicyDRAMOnly measures the LRU baseline's access path.
func BenchmarkPolicyDRAMOnly(b *testing.B) {
	policyBench(b, func() policy.Policy {
		p, _ := policy.NewDRAMOnly(129)
		return p
	})
}

// --- substrate micro-benchmarks ---

// BenchmarkSegmentedLRU measures the windowed LRU's Touch path (the
// proposed scheme's hottest operation).
func BenchmarkSegmentedLRU(b *testing.B) {
	l := lru.New[int]()
	l.AddMarker(100, func(uint64, *int) {})
	l.AddMarker(300, func(uint64, *int) {})
	for i := uint64(0); i < 1000; i++ {
		l.PushFront(i, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Touch(uint64(i*7919) % 1000)
	}
}

// BenchmarkGenerator measures workload synthesis throughput.
func BenchmarkGenerator(b *testing.B) {
	spec, _ := workload.ByName("canneal")
	g, err := workload.NewGenerator(spec, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.StopTimer()
			g, _ = workload.NewGenerator(spec, 1, 3)
			b.StartTimer()
		}
	}
}

// BenchmarkTraceCodec measures binary trace encode+decode throughput.
func BenchmarkTraceCodec(b *testing.B) {
	recs := benchTrace(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		w := trace.NewWriter(&buf)
		if _, err := trace.WriteAll(w, trace.NewSliceSource(recs)); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(recs) * 14))
}

type writeCounter struct{ n int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// BenchmarkAblationArchitecture regenerates the migration-vs-caching
// comparison (Section III).
func BenchmarkAblationArchitecture(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ArchComparison("ferret", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWearLevel regenerates the Start-Gap wear-leveling study.
func BenchmarkAblationWearLevel(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WearLevelAblation("bodytrack", cfg, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolicyDRAMCache measures the cache-architecture access path.
func BenchmarkPolicyDRAMCache(b *testing.B) {
	policyBench(b, func() policy.Policy {
		p, _ := dramcache.New(12, 117, dramcache.DefaultConfig())
		return p
	})
}
