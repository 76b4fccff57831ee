// Custom workload: define a new benchmark in the JSON spec format, generate
// its trace, inspect its locality with the reuse-distance analyzer, and
// evaluate the proposed scheme on it — the full pipeline for workloads
// beyond the built-in Table III set.
//
// The same JSON file works with `hybridsim trace -specs`.
package main

import (
	"fmt"
	"log"
	"strings"

	"hybridmem/internal/core"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// specJSON describes a key-value store: a small scorching-hot index, a
// DRAM-sized working set, moderate writes concentrated on the index, and a
// long cold tail visited rarely.
const specJSON = `[{
  "name": "kvstore",
  "working_set_kb": 65536,
  "reads": 2000000,
  "writes": 500000,
  "pattern": {
    "resident_fraction": 0.7,
    "hot_fraction": 0.05,
    "hot_bias": 0.85,
    "seq_run_len": 2,
    "repeat_burst": 3,
    "write_hot_fraction": 0.02,
    "write_hot_bias": 0.9,
    "roi_archive_visits": 0.5,
    "mean_gap_ns": 120
  }
}]`

func main() {
	specs, err := workload.LoadSpecs(strings.NewReader(specJSON))
	if err != nil {
		log.Fatal(err)
	}
	spec := specs[0]
	fmt.Printf("custom workload %q: %d KB footprint, %d reads + %d writes\n\n",
		spec.Name, spec.WorkingSetKB, spec.Reads, spec.Writes)

	const scale, seed = 0.05, 1

	// Locality profile first: the reuse-distance histogram explains what
	// any LRU-family policy will do with this workload.
	gen, err := workload.NewGenerator(spec, scale, seed)
	if err != nil {
		log.Fatal(err)
	}
	reuse, err := trace.AnalyzeReuse(gen, workload.PageSizeBytes, 24)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reuse-distance profile (%.2f%% cold accesses):\n", 100*reuse.ColdFraction())
	for _, b := range reuse.Histogram() {
		fmt.Printf("  %7d..%-7d %6.1f%%\n", b.LoDistance, b.HiDistance,
			100*float64(b.Count)/float64(reuse.Total()))
	}

	// Evaluate the proposed scheme on it.
	gen2, _ := workload.NewGenerator(spec, scale, seed)
	warm, err := trace.Materialize(gen2.WarmupSource(seed+1), 0)
	if err != nil {
		log.Fatal(err)
	}
	roi, err := trace.Materialize(gen2, 0)
	if err != nil {
		log.Fatal(err)
	}
	dram, nvm := memspec.DefaultSizing().Partition(gen2.Pages())
	pol, err := core.New(dram, nvm, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(trace.NewSliceSource(warm), pol, memspec.Default(), sim.Options{}); err != nil {
		log.Fatal(err)
	}
	res, err := sim.Run(trace.NewSliceSource(roi), pol, memspec.Default(), sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := model.Evaluate(res, memspec.Default())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nproposed scheme on kvstore (DRAM %d + NVM %d frames):\n", dram, nvm)
	fmt.Printf("  AMAT %.1f ns (hits %.1f + migrations %.1f), power %.2f nJ/access\n",
		rep.AMAT.Total()-rep.AMAT.Miss,
		rep.AMAT.HitDRAM+rep.AMAT.HitNVM, rep.AMAT.Migrations(), rep.APPR.Total())
	fmt.Printf("  DRAM hit ratio %.3f (the hot index should live there)\n",
		rep.Probabilities.PHitDRAM)
	fmt.Printf("  %d promotions, %d NVM line writes\n",
		res.Counts.Promotions, rep.NVMWrites.Total())
}
