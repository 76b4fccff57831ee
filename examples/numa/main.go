// Numa: run the tiered-memory engine on an emulated two-socket machine.
// Each NUMA node owns its own DRAM and NVM frame pools, shard groups map
// to home nodes, and the migration daemon runs one scan/promotion
// pipeline per node. A page is placed on its home node while the local
// pool has room; only when the home node is exhausted does the engine
// reach across the interconnect for a remote frame — and the per-node
// stats show exactly how often that happened and what it costs.
//
// The demo squeezes node 0 (a quarter of the DRAM) under a workload whose
// pages are spread evenly across both nodes, so node 0's pool overflows
// and its overflow lands on node 1 as remote placements. Node 1, with
// ample DRAM, stays almost entirely local.
package main

import (
	"fmt"
	"log"
	"strconv"
	"time"

	"hybridmem/internal/loadgen"
	"hybridmem/internal/memspec"
	"hybridmem/internal/obs"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

func main() {
	// Materialize one workload trace and size memory by the paper's rule.
	spec, ok := workload.ByName("bodytrack")
	if !ok {
		log.Fatal("unknown workload")
	}
	gen, err := workload.NewGenerator(spec, 0.05, 1)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := trace.Materialize(gen, 0)
	if err != nil {
		log.Fatal(err)
	}
	dram, nvm := memspec.DefaultSizing().Partition(gen.Pages())

	// An asymmetric two-node topology: node 0 gets a quarter of the DRAM,
	// node 1 the rest; NVM splits evenly. The remote penalty feeds the
	// cost model the reports quote.
	topo := tiered.Topology{
		Nodes: []tiered.NodeConfig{
			{DRAMPages: dram / 4, NVMPages: nvm / 2},
			{DRAMPages: dram - dram/4, NVMPages: nvm - nvm/2},
		},
		RemotePenalty: 1.8,
	}
	ring := obs.NewEventRing(obs.DefaultRingSize)
	engine, err := tiered.New(tiered.Config{
		Policy:    tiered.Proposed,
		DRAMPages: dram,
		NVMPages:  nvm,
		Topology:  topo,
		Events:    ring,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Start(); err != nil {
		log.Fatal(err)
	}

	// The admin plane exposes the engine's per-node series over HTTP
	// while the run is live; the same registry doubles as the in-process
	// snapshot API used below.
	reg := obs.NewRegistry()
	engine.RegisterMetrics(reg)
	adm, err := obs.NewAdmin(obs.AdminConfig{
		Addr:       "127.0.0.1:0",
		Registry:   reg,
		Events:     ring,
		Ready:      func() error { return nil },
		Invariants: engine.CheckInvariants,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := adm.Listen(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admin plane on %s (scrape /metrics for the per-node series)\n", adm.URL())

	mspec := engine.Config().Spec
	fmt.Printf("engine up: %d NUMA nodes, DRAM %d + NVM %d frames total\n",
		engine.NumNodes(), dram, nvm)
	for _, ns := range engine.NodeStats() {
		fmt.Printf("  node %d: %d DRAM + %d NVM frames\n", ns.ID, ns.DRAMPages, ns.NVMPages)
	}
	fmt.Printf("migration economics: a local promotion breaks even after %d extra DRAM hits, "+
		"a remote one (%.1fx penalty) after %d\n\n",
		tiered.BreakEvenHits(mspec), topo.RemotePenalty, topo.BreakEvenHitsRemote(mspec))

	// Serve the trace from four closed-loop workers.
	res, err := loadgen.Run([]loadgen.Load{{
		Recs: recs, Workers: 4, Open: loadgen.Engine(engine, tiered.DefaultTenant),
	}}, loadgen.Config{Ops: 400000})
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Aggregate
	if err := engine.Stop(); err != nil {
		log.Fatal(err)
	}

	st := engine.Stats()
	fmt.Printf("served %.0f ops/s (%d ops), p50 %v, p99 %v\n",
		rep.OpsPerSec, rep.Ops, rep.P50, rep.P99)
	fmt.Printf("migrations: %d promotions (%d remote), %d demotions (%d remote)\n\n",
		st.Promotions, st.RemotePromotions, st.Demotions, st.RemoteDemotions)
	for _, ns := range engine.NodeStats() {
		fmt.Printf("node %d:\n", ns.ID)
		fmt.Printf("  occupancy %d/%d DRAM, %d/%d NVM frames\n",
			ns.ResidentDRAM, ns.DRAMPages, ns.ResidentNVM, ns.NVMPages)
		fmt.Printf("  %d ops served for pages homed here\n", ns.Accesses)
		fmt.Printf("  faults %d local / %d remote, promotions %d local / %d remote\n",
			ns.FaultsLocal, ns.FaultsRemote, ns.PromotionsLocal, ns.PromotionsRemote)
		if ns.ResidentDRAM > ns.DRAMPages || ns.ResidentNVM > ns.NVMPages {
			log.Fatalf("node %d pool overflowed", ns.ID)
		}
	}
	if err := engine.CheckInvariants(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nper-node pools, quotas and spill tokens all reconcile (CheckInvariants ok)")

	// Read the same per-node figures back through the metrics registry:
	// every NodeStats field above is also a labeled series, so whatever
	// scrapes /metrics sees exactly what the Go API reports.
	samples := reg.Snapshot()
	for n := 0; n < engine.NumNodes(); n++ {
		nl := obs.L("node", strconv.Itoa(n))
		res, _ := obs.Find(samples, "tierd_node_resident_pages", nl, obs.L("tier", "dram"))
		pl, _ := obs.Find(samples, "tierd_node_promotions_total", nl, obs.L("locality", "local"))
		pr, _ := obs.Find(samples, "tierd_node_promotions_total", nl, obs.L("locality", "remote"))
		fmt.Printf("registry view of node %d: %d resident DRAM pages, %d local + %d remote promotions\n",
			n, res.Value, pl.Value, pr.Value)
	}
	if s, ok := obs.Find(samples, "tierd_events_published_total"); ok {
		fmt.Printf("migration trace ring captured %d events\n", s.Value)
	}
	if err := adm.Shutdown(2 * time.Second); err != nil {
		log.Fatal(err)
	}
}
