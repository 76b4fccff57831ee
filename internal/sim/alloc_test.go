package sim

import (
	"testing"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/mm"
	"hybridmem/internal/policy"
	"hybridmem/internal/trace"
)

// TestAccessZeroAllocs is the offline layer's allocation gate: once memory is
// full, servicing an access allocates nothing under any of the evaluated
// policies — not on a hit, not on a fault that evicts, not on the mix of NVM
// hits, promotions and demotions a working set larger than memory causes.
// Queue nodes come from the slabs' free lists and the page tables neither
// grow nor leave tombstones. The count is exact and the same on any machine.
func TestAccessZeroAllocs(t *testing.T) {
	const dram, nvm = 8, 56
	adaptive := core.DefaultAdaptiveConfig()
	adaptive.EpochLength = 64 // so that the measured accesses cross epoch boundaries
	low := core.DefaultConfig()
	low.ReadThreshold, low.WriteThreshold = 2, 2 // so that they promote
	builders := map[string]func() (policy.Policy, error){
		"dram-only": func() (policy.Policy, error) { return policy.NewDRAMOnly(dram + nvm) },
		"nvm-only":  func() (policy.Policy, error) { return policy.NewNVMOnly(dram + nvm) },
		"clock-dwf": func() (policy.Policy, error) { return clockdwf.New(dram, nvm, clockdwf.DefaultConfig()) },
		"proposed":  func() (policy.Policy, error) { return core.New(dram, nvm, low) },
		"proposed-adaptive": func() (policy.Policy, error) {
			return core.NewAdaptive(dram, nvm, low, adaptive)
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			p, err := build()
			if err != nil {
				t.Fatal(err)
			}
			promotions := 0
			access := func(page uint64, op trace.Op) {
				res, err := p.Access(page, op)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range res.Moves {
					if m.Reason == policy.ReasonPromotion {
						promotions++
					}
				}
			}
			// Fill both zones (CLOCK-DWF loads reads into NVM and writes
			// into DRAM) and run the working set long enough for every
			// kind of move to have happened once.
			next := uint64(0)
			for ; next < 4*(dram+nvm); next++ {
				access(next, trace.Op(next%2))
			}
			const set = 2 * (dram + nvm)
			x := uint64(1)
			churn := func() {
				x = x*6364136223846793005 + 1442695040888963407
				// Half the accesses go to a sixteenth of the set, so NVM
				// pages collect the hits that promote them.
				page := (x >> 33) % set
				if x>>63 == 0 {
					page %= set / 16
				}
				access(next-1-page, trace.Op(x>>62&1))
			}
			for i := 0; i < 4096; i++ {
				churn()
			}
			sys := p.System()
			if free := sys.Free(mm.LocDRAM) + sys.Free(mm.LocNVM); free != 0 {
				t.Fatalf("memory not full: %d free frames", free)
			}

			hot := next - 1
			access(hot, trace.OpRead)
			if n := testing.AllocsPerRun(1000, func() { access(hot, trace.OpWrite) }); n != 0 {
				t.Errorf("hit: %v allocs per access", n)
			}
			if n := testing.AllocsPerRun(1000, func() {
				access(next, trace.Op(next%2))
				next++
			}); n != 0 {
				t.Errorf("evicting fault: %v allocs per access", n)
			}
			promotions = 0
			if n := testing.AllocsPerRun(4096, churn); n != 0 {
				t.Errorf("working set of twice the memory: %v allocs per access", n)
			}
			if hybrid := sys.Cap(mm.LocDRAM) > 0 && sys.Cap(mm.LocNVM) > 0; hybrid && promotions == 0 {
				t.Error("the working-set run promoted no page")
			}
			if ic, ok := p.(invariantChecker); ok {
				err = ic.CheckInvariants()
			} else {
				err = sys.CheckInvariants()
			}
			if err != nil {
				t.Error(err)
			}
		})
	}
}
