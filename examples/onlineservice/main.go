// Onlineservice: embed the online tiered-memory engine as a library. A
// small service starts the engine, serves a synthetic workload from several
// goroutines at once while the migration daemon runs in the background,
// snapshots live statistics mid-traffic, and shuts down gracefully.
//
// This is the concurrent counterpart of ExampleNewSystem (hybridmem_test.go):
// the same paper policy, but serving simultaneous callers instead of
// replaying a trace single-threaded.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"hybridmem/internal/memspec"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

func main() {
	// Synthesize the bodytrack workload at 5% of its Table III size and
	// provision memory by the paper's rule (75% of the footprint, 10% of
	// that DRAM).
	spec, _ := workload.ByName("bodytrack")
	gen, err := workload.NewGenerator(spec, 0.05, 1)
	if err != nil {
		log.Fatal(err)
	}
	recs, err := trace.Materialize(gen, 0)
	if err != nil {
		log.Fatal(err)
	}
	dram, nvm := memspec.DefaultSizing().Partition(gen.Pages())

	// Build and start the engine: the proposed policy online, a sharded
	// page table, and the migration daemon scanning every millisecond.
	engine, err := tiered.New(tiered.Config{
		Policy:       tiered.Proposed,
		DRAMPages:    dram,
		NVMPages:     nvm,
		ScanInterval: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := engine.Start(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine up: DRAM %d + NVM %d frames, %d shards, policy %s\n",
		dram, nvm, engine.Config().Shards, engine.PolicyName())

	// Serve from four goroutines simultaneously, each replaying the trace
	// closed-loop from its own offset — four tenants hammering one memory.
	const goroutines = 4
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := len(recs) * w / goroutines
			for n := 0; n < 100000; n++ {
				r := recs[i]
				i++
				if i == len(recs) {
					i = 0
				}
				if _, err := engine.Serve(r.Addr, r.Op); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}

	// Meanwhile, watch the engine work: Stats is safe to call under load.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
watch:
	for {
		select {
		case <-done:
			break watch
		case <-ticker.C:
			st := engine.Stats()
			fmt.Printf("  live: %7d accesses, %5.1f%% DRAM hits, %3d promotions, %2d scans\n",
				st.Accesses, 100*float64(st.HitsDRAM())/float64(max(st.Accesses, 1)),
				st.Promotions, st.Scans)
		}
	}

	// Graceful shutdown: the daemon drains its queue before Stop returns.
	if err := engine.Stop(); err != nil {
		log.Fatal(err)
	}
	st := engine.Stats()
	fmt.Printf("final: %d accesses (%d faults), %d promotions, %d demotions, %d evictions\n",
		st.Accesses, st.Faults, st.Promotions, st.Demotions, st.Evictions)
	fmt.Printf("       %d/%d DRAM and %d/%d NVM frames resident; %d scan epochs\n",
		st.ResidentDRAM, dram, st.ResidentNVM, nvm, st.Scans)
}
