package experiments

import "testing"

func TestArchComparison(t *testing.T) {
	cfg := testConfig()
	// ferret: high-locality, read-dominant -- both hybrid architectures
	// should work, with the cache absorbing the hot set.
	row, err := ArchComparison("ferret", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if row.Proposed == nil || row.Cache == nil || row.DWF == nil || row.DRAM == nil {
		t.Fatal("missing reports")
	}
	if row.Cache.Probabilities.PHitDRAM <= 0 {
		t.Error("cache never served a hit")
	}
	// Conservation: the cache architecture's trace is the same length.
	if row.Cache.Accesses != row.Proposed.Accesses {
		t.Errorf("access counts differ: %d vs %d", row.Cache.Accesses, row.Proposed.Accesses)
	}
	// The cache architecture must beat NVM-only-style latency on a
	// high-locality workload (its whole point).
	cacheAMAT := row.Cache.AMAT.HitDRAM + row.Cache.AMAT.HitNVM + row.Cache.AMAT.Migrations()
	if cacheAMAT >= 200 {
		t.Errorf("cache architecture AMAT %v shows no caching benefit", cacheAMAT)
	}
}

func TestWearLevelAblation(t *testing.T) {
	// Start-Gap levels over whole laps of the frame space; the short test
	// trace needs an aggressive gap period (line writes per move) so the
	// mapping rotates through many laps.
	res, err := WearLevelAblation("vips", testConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plain.Total != res.Leveled.Total {
		t.Errorf("leveling changed total wear: %d vs %d", res.Plain.Total, res.Leveled.Total)
	}
	if res.LeveledImbalance >= res.PlainImbalance {
		t.Errorf("leveling did not improve imbalance: %.2f vs %.2f",
			res.LeveledImbalance, res.PlainImbalance)
	}
	if res.LeveledWorstYears <= res.PlainWorstYears {
		t.Errorf("leveling did not extend worst-frame lifetime: %.2f vs %.2f",
			res.LeveledWorstYears, res.PlainWorstYears)
	}
	if res.GapMoves == 0 {
		t.Error("gap never moved")
	}
}

func TestRunSeeds(t *testing.T) {
	cfg := testConfig()
	study, err := RunSeeds(cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if study.Seeds != 3 {
		t.Errorf("seeds = %d", study.Seeds)
	}
	// The headline ratios must be stable across seeds: the proposed scheme
	// beats CLOCK-DWF on AMAT for every seed.
	if study.AMATVsDWF.Max >= 1 {
		t.Errorf("AMAT ratio exceeded 1 for some seed: %v", study.AMATVsDWF)
	}
	if study.AMATVsDWF.StdDev > 0.2 {
		t.Errorf("AMAT ratio unstable across seeds: %v", study.AMATVsDWF)
	}
	if study.WritesVsNVMOnly.Mean <= 0 {
		t.Errorf("writes summary empty: %v", study.WritesVsNVMOnly)
	}
	if _, err := RunSeeds(cfg, []int64{1}); err == nil {
		t.Error("single seed should error")
	}
}

func TestRunMixed(t *testing.T) {
	cfg := testConfig()
	run, err := RunMixed([]string{"bodytrack", "ferret"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Label() != "bodytrack+ferret" {
		t.Errorf("label = %q", run.Label())
	}
	for _, id := range []PolicyID{DRAMOnly, NVMOnly, ClockDWF, Proposed} {
		if run.Reports[id] == nil {
			t.Fatalf("missing %s", id)
		}
	}
	// The paper's ordering must survive consolidation: the proposed scheme
	// still beats CLOCK-DWF on AMAT and NVM writes on the mixed stream.
	prop, dwf := run.Reports[Proposed], run.Reports[ClockDWF]
	propAMAT := prop.AMAT.HitDRAM + prop.AMAT.HitNVM + prop.AMAT.Migrations()
	dwfAMAT := dwf.AMAT.HitDRAM + dwf.AMAT.HitNVM + dwf.AMAT.Migrations()
	if propAMAT >= dwfAMAT {
		t.Errorf("mixed AMAT: proposed %v >= CLOCK-DWF %v", propAMAT, dwfAMAT)
	}
	if prop.NVMWrites.Total() >= dwf.NVMWrites.Total() {
		t.Errorf("mixed writes: proposed %d >= CLOCK-DWF %d",
			prop.NVMWrites.Total(), dwf.NVMWrites.Total())
	}
	if _, err := RunMixed([]string{"ferret"}, cfg); err == nil {
		t.Error("single workload mix should error")
	}
	if _, err := RunMixed([]string{"ferret", "swaptions"}, cfg); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestArchIncludesStaticPartition(t *testing.T) {
	row, err := ArchComparison("bodytrack", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if row.Static == nil {
		t.Fatal("missing static-partition report")
	}
	// The no-migration hybrid never migrates.
	if row.Static.Probabilities.PMigD != 0 || row.Static.Probabilities.PMigN != 0 {
		t.Error("static partition migrated")
	}
	// Migration must earn its keep: the proposed scheme serves more traffic
	// from DRAM than blind first-touch placement on a hot-set workload.
	if row.Proposed.Probabilities.PHitDRAM <= row.Static.Probabilities.PHitDRAM {
		t.Errorf("migration did not improve DRAM hit ratio: %v vs %v",
			row.Proposed.Probabilities.PHitDRAM, row.Static.Probabilities.PHitDRAM)
	}
}
