// Multitenant: consolidate two isolated workloads on one tiered-memory
// engine. Each tenant gets its own page namespace, a dedicated DRAM quota
// and an independent policy instance; a shared spill pool absorbs bursts.
// The demo drives both tenants concurrently, then shows that the hot
// tenant was capped at its quota plus the spill pool while the other kept
// its guaranteed share — the paper's consolidated `mix` study served live
// with fairness guarantees.
//
// This is the multi-tenant counterpart of examples/onlineservice: the
// same engine, but partitioned between users instead of shared blindly.
package main

import (
	"fmt"
	"log"

	"hybridmem/internal/loadgen"
	"hybridmem/internal/memspec"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// tenantSpec describes one consolidated workload.
type tenantSpec struct {
	id       tiered.TenantID
	workload string
	scale    float64
	seed     int64
	quotaPct int
}

func main() {
	specs := []tenantSpec{
		{id: 0, workload: "bodytrack", scale: 0.05, seed: 1, quotaPct: 55},
		{id: 1, workload: "canneal", scale: 0.01, seed: 2, quotaPct: 30},
		// 15% of DRAM stays unquota'd: the spill pool either tenant may
		// borrow when the other is idle.
	}

	// Materialize each tenant's trace and size memory for the combined
	// footprint by the paper's rule (75% of the footprint, 10% of that
	// DRAM).
	traces := make([][]trace.Record, len(specs))
	totalPages := 0
	for i, s := range specs {
		spec, ok := workload.ByName(s.workload)
		if !ok {
			log.Fatalf("unknown workload %q", s.workload)
		}
		gen, err := workload.NewGenerator(spec, s.scale, s.seed)
		if err != nil {
			log.Fatal(err)
		}
		recs, err := trace.Materialize(gen, 0)
		if err != nil {
			log.Fatal(err)
		}
		traces[i] = recs
		totalPages += gen.Pages()
	}
	dram, nvm := memspec.DefaultSizing().Partition(totalPages)

	tenants := make([]tiered.TenantConfig, len(specs))
	for i, s := range specs {
		tenants[i] = tiered.TenantConfig{
			ID:        s.id,
			Name:      s.workload,
			DRAMQuota: dram * s.quotaPct / 100,
		}
	}
	engine, err := tiered.New(tiered.Config{
		Policy:    tiered.Proposed,
		DRAMPages: dram,
		NVMPages:  nvm,
		Tenants:   tenants,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine up: DRAM %d + NVM %d frames, spill pool %d frames, %d tenants\n",
		dram, nvm, engine.SpillPool(), len(tenants))
	for _, s := range specs {
		st, _ := engine.TenantStats(s.id)
		fmt.Printf("  tenant %d (%s): quota %d frames, cap %d (quota + spill)\n",
			s.id, st.Name, st.DRAMQuota, st.DRAMCap)
	}

	// Drive both tenants concurrently, two closed-loop workers each.
	loads := make([]loadgen.Load, len(specs))
	for i, s := range specs {
		loads[i] = loadgen.Load{Recs: traces[i], Workers: 2, Open: loadgen.Engine(engine, s.id)}
	}
	rep, err := loadgen.Run(loads, loadgen.Config{Ops: 400000})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Stop(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\naggregate: %.0f ops/s (%d ops), p50 %v, p99 %v\n",
		rep.Aggregate.OpsPerSec, rep.Aggregate.Ops, rep.Aggregate.P50, rep.Aggregate.P99)
	for i, s := range specs {
		st, _ := engine.TenantStats(s.id)
		tr := rep.Loads[i]
		fmt.Printf("tenant %d (%s):\n", s.id, st.Name)
		fmt.Printf("  served %d ops at %.0f ops/s, p50 %v p99 %v\n", tr.Ops, tr.OpsPerSec, tr.P50, tr.P99)
		fmt.Printf("  %d DRAM hits, %d NVM hits, %d faults\n", st.HitsDRAM, st.HitsNVM, st.Faults)
		fmt.Printf("  %d promotions, %d demotions — migration budget was shared fairly\n",
			st.Promotions, st.Demotions)
		fmt.Printf("  DRAM residency %d of cap %d: never above quota %d + spill %d\n",
			st.ResidentDRAM, st.DRAMCap, st.DRAMQuota, engine.SpillPool())
		if st.ResidentDRAM > st.DRAMCap {
			log.Fatalf("quota violated: tenant %d holds %d frames, cap %d", s.id, st.ResidentDRAM, st.DRAMCap)
		}
	}
}
