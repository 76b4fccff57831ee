package hybridmem

import (
	"fmt"
	"log"
	"testing"
)

// ExampleNewSystem is the quick start: run one PARSEC-like workload on the
// proposed migration scheme and print the paper's three headline metrics —
// average memory access time, power per request and NVM write traffic.
func ExampleNewSystem() {
	// Synthesize the ferret workload at 1% of its Table III size. The
	// warmup stream touches every page once (the initialization phase);
	// the ROI stream is what gets measured.
	warmup, roi, err := GenerateWorkload("ferret", 0.01, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Provision memory by the paper's rule: 75% of the footprint, of which
	// 10% is DRAM and 90% is NVM (PCM).
	size := SizeFor(FootprintPages(warmup))
	fmt.Printf("ferret: %d accesses over %d pages; DRAM %d + NVM %d frames\n",
		len(roi), FootprintPages(warmup), size.DRAMPages, size.NVMPages)

	sys, err := NewSystem(Proposed, size)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Warm(warmup); err != nil {
		log.Fatal(err)
	}
	res, err := sys.Run(roi)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("AMAT:       %.1f ns/access (hits %.1f + disk %.1f + migrations %.1f)\n",
		res.AMATNanos, res.AMATHitNanos, res.AMATDiskNanos, res.AMATMigrationNanos)
	fmt.Printf("power:      %.2f nJ/access (static %.2f + dynamic %.2f + faults %.2f + migration %.2f)\n",
		res.PowerNanojoulesPerAccess, res.PowerStatic, res.PowerDynamic,
		res.PowerPageFault, res.PowerMigration)
	fmt.Printf("NVM writes: %d lines (%d in-place, %d fault loads, %d migrations)\n",
		res.NVMWriteLines, res.NVMWritesFromRequests, res.NVMWritesFromFaults,
		res.NVMWritesFromMigration)
	fmt.Printf("placement:  %.1f%% DRAM hits, %.1f%% NVM hits, %.4f%% faults; %d promotions\n",
		100*res.DRAMHitRatio, 100*res.NVMHitRatio, 100*res.FaultRatio, res.Promotions)
	fmt.Printf("endurance:  %.1f years (ideal wear leveling)\n", res.LifetimeYears)
	// Output:
	// ferret: 615724 accesses over 172 pages; DRAM 12 + NVM 117 frames
	// AMAT:       478.4 ns/access (hits 55.5 + disk 422.3 + migrations 0.6)
	// power:      4.77 nJ/access (static 0.95 + dynamic 3.57 + faults 0.02 + migration 0.24)
	// NVM writes: 4690 lines (722 in-place, 0 fault loads, 3968 migrations)
	// placement:  89.5% DRAM hits, 10.5% NVM hits, 0.0084% faults; 10 promotions
	// endurance:  10.2 years (ideal wear leveling)
}

func TestSizeFor(t *testing.T) {
	s := SizeFor(1000)
	if s.DRAMPages != 75 || s.NVMPages != 675 {
		t.Errorf("SizeFor(1000) = %+v, want 75/675", s)
	}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem("bogus", Size{DRAMPages: 2, NVMPages: 8}); err == nil {
		t.Error("unknown policy should error")
	}
	if _, err := NewSystem(Proposed, Size{}); err == nil {
		t.Error("empty size should error")
	}
	if _, err := NewSystem(Proposed, Size{DRAMPages: 2, NVMPages: 8},
		WithThresholds(0, 0)); err == nil {
		t.Error("invalid thresholds should error")
	}
}

func TestWorkloadCatalog(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 12 {
		t.Fatalf("got %d workloads", len(names))
	}
	infos := Workloads()
	if len(infos) != 12 {
		t.Fatalf("got %d infos", len(infos))
	}
	for _, w := range infos {
		if w.WorkingSetKB <= 0 || w.Reads+w.Writes <= 0 {
			t.Errorf("%s: empty characterization", w.Name)
		}
	}
}

func TestGenerateWorkloadUnknown(t *testing.T) {
	if _, _, err := GenerateWorkload("swaptions", 0.01, 1); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestEndToEndQuickstart(t *testing.T) {
	warm, roi, err := GenerateWorkload("ferret", 0.005, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) == 0 || len(roi) == 0 {
		t.Fatal("empty streams")
	}
	size := SizeFor(FootprintPages(warm))
	sys, err := NewSystem(Proposed, size)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Kind() != Proposed {
		t.Errorf("kind = %q", sys.Kind())
	}
	if err := sys.Warm(warm); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(roi)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != int64(len(roi)) {
		t.Errorf("accesses = %d, want %d", res.Accesses, len(roi))
	}
	if res.AMATNanos <= 0 || res.PowerNanojoulesPerAccess <= 0 {
		t.Error("non-positive evaluation")
	}
	sum := res.AMATHitNanos + res.AMATDiskNanos + res.AMATMigrationNanos
	if diff := sum - res.AMATNanos; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("AMAT breakdown %v != total %v", sum, res.AMATNanos)
	}
	psum := res.PowerStatic + res.PowerDynamic + res.PowerPageFault + res.PowerMigration
	if diff := psum - res.PowerNanojoulesPerAccess; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("power breakdown %v != total %v", psum, res.PowerNanojoulesPerAccess)
	}
	if res.NVMWriteLines != res.NVMWritesFromRequests+res.NVMWritesFromFaults+res.NVMWritesFromMigration {
		t.Error("NVM write sources do not sum")
	}
	if res.LifetimeYears <= 0 {
		t.Error("expected a lifetime estimate for a hybrid system")
	}
}

func TestAllPoliciesRunTheSameTrace(t *testing.T) {
	warm, roi, err := GenerateWorkload("bodytrack", 0.005, 2)
	if err != nil {
		t.Fatal(err)
	}
	size := SizeFor(FootprintPages(warm))
	results := map[PolicyKind]*Results{}
	for _, kind := range []PolicyKind{Proposed, ProposedAdaptive, ClockDWF, DRAMOnly, NVMOnly} {
		sys, err := NewSystem(kind, size)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := sys.Warm(warm); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := sys.Run(roi)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		results[kind] = res
	}
	// Sanity of the paper's ordering on a write-heavy workload: the
	// proposed scheme writes less to NVM than both CLOCK-DWF and NVM-only.
	if p, d := results[Proposed].NVMWriteLines, results[ClockDWF].NVMWriteLines; p >= d {
		t.Errorf("proposed NVM writes %d >= CLOCK-DWF %d", p, d)
	}
	if p, n := results[Proposed].NVMWriteLines, results[NVMOnly].NVMWriteLines; p >= n {
		t.Errorf("proposed NVM writes %d >= NVM-only %d", p, n)
	}
	if results[DRAMOnly].NVMWriteLines != 0 {
		t.Error("DRAM-only should have no NVM writes")
	}
}

func TestOptionsApply(t *testing.T) {
	warm, roi, _ := GenerateWorkload("freqmine", 0.005, 3)
	size := SizeFor(FootprintPages(warm))
	loose, _ := NewSystem(Proposed, size, WithThresholds(2, 3), WithWindows(0.5, 0.8))
	strict, _ := NewSystem(Proposed, size, WithThresholds(1<<20, 1<<20))
	loose.Warm(warm)
	strict.Warm(warm)
	lr, err := loose.Run(roi)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := strict.Run(roi)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Promotions != 0 {
		t.Errorf("unreachable thresholds still promoted %d pages", sr.Promotions)
	}
	if lr.Promotions == 0 {
		t.Error("loose thresholds never promoted")
	}
}

func TestWordAccountingChangesPageFactorCosts(t *testing.T) {
	warm, roi, _ := GenerateWorkload("raytrace", 0.005, 4)
	size := SizeFor(FootprintPages(warm))
	lines, _ := NewSystem(ClockDWF, size)
	words, _ := NewSystem(ClockDWF, size, WithWordAccounting())
	lines.Warm(warm)
	words.Warm(warm)
	lr, _ := lines.Run(roi)
	wr, _ := words.Run(roi)
	// Word accounting moves pages as 1024 accesses instead of 64: the
	// migration AMAT component grows accordingly.
	if wr.AMATMigrationNanos <= lr.AMATMigrationNanos {
		t.Errorf("word-granularity migration cost %v should exceed line-granularity %v",
			wr.AMATMigrationNanos, lr.AMATMigrationNanos)
	}
}

func TestDRAMCacheKind(t *testing.T) {
	warm, roi, _ := GenerateWorkload("ferret", 0.005, 6)
	size := SizeFor(FootprintPages(warm))
	sys, err := NewSystem(DRAMCache, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Warm(warm); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(roi)
	if err != nil {
		t.Fatal(err)
	}
	// The cache architecture serves hot hits from DRAM without exclusive
	// migration churn.
	if res.DRAMHitRatio <= 0 {
		t.Error("cache never hit")
	}
	if res.AMATNanos <= 0 {
		t.Error("bad evaluation")
	}
}
