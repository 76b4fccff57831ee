package tiered_test

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fidelity.golden with the rows this run measures")

const (
	fidelityGolden = "testdata/fidelity.golden"
	fidelityScale  = 0.05
	fidelitySeed   = 11
	// fidelityStep accesses are served between two ScanOnce calls.
	fidelityStep = 4096
	// fidelityShards is fixed so the table's geometry, and with it the
	// CLOCK sweep order, does not depend on the machine's GOMAXPROCS.
	fidelityShards = 64

	fidelityHeader = "# workload      policy            side   accesses dramhit  nvmhit   faults   promos   demos  nvmwrhit    amat_ns  dynpow_nj"
	fidelityFormat = "%-15s %-17s %-6s %8d %7.4f %7.4f %8d %8d %7d %9d %10.2f %10.4f"
)

// fidelityShort is the -short subset: the two extremes of the divergence
// (x264, canneal), the workload the rest of the suite replays (bodytrack)
// and one streaming pattern.
var fidelityShort = []string{"bodytrack", "canneal", "streamcluster", "x264"}

// referencePolicy builds the single-threaded reference implementation of an
// online kind — the exact policy object internal/sim drives.
func referencePolicy(kind tiered.Kind, dram, nvm int) (policy.Policy, error) {
	switch kind {
	case tiered.Proposed:
		return core.New(dram, nvm, core.DefaultConfig())
	case tiered.Adaptive:
		return core.NewAdaptive(dram, nvm, core.DefaultConfig(), core.DefaultAdaptiveConfig())
	case tiered.ClockDWF:
		return clockdwf.New(dram, nvm, clockdwf.DefaultConfig())
	}
	return nil, fmt.Errorf("no reference policy for kind %q", kind)
}

// fidelityTrace materializes one workload, warm-up then ROI — the sequence
// the experiments replay — and the paper-rule zone sizing.
func fidelityTrace(t *testing.T, name string) (recs []trace.Record, dram, nvm int) {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	gen, err := workload.NewGenerator(spec, fidelityScale, fidelitySeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []trace.Source{gen.WarmupSource(fidelitySeed + 1), gen} {
		part, err := trace.Materialize(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, part...)
	}
	dram, nvm = memspec.DefaultSizing().Partition(gen.Pages())
	return recs, dram, nvm
}

// replayStepped serves recs through the engine production runs — lock-free
// table, epoch scan, promotion daemon — made deterministic from outside:
// one goroutine, the ticker parked, ScanOnce every fidelityStep accesses.
func replayStepped(t *testing.T, kind tiered.Kind, dram, nvm int, recs []trace.Record) tiered.Stats {
	t.Helper()
	e, err := tiered.New(tiered.Config{
		Policy: kind, DRAMPages: dram, NVMPages: nvm,
		Shards: fidelityShards, ScanInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i, r := range recs {
		if _, err := e.Serve(r.Addr, r.Op); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if (i+1)%fidelityStep == 0 {
			if err := e.ScanOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return e.Stats()
}

// engineCounts copies an engine Stats into the simulator's tally so one
// model prices both sides.
func engineCounts(st tiered.Stats) sim.Counts {
	return sim.Counts{
		Accesses:  st.Accesses,
		ReadsDRAM: st.ReadsDRAM, WritesDRAM: st.WritesDRAM, ReadsNVM: st.ReadsNVM, WritesNVM: st.WritesNVM,
		Faults: st.Faults, FaultsToDRAM: st.FaultsToDRAM, FaultsToNVM: st.FaultsToNVM,
		Promotions: st.Promotions, Demotions: st.Demotions,
		DemotionsFault: st.DemotionsFault, DemotionsPromo: st.DemotionsPromo, DemotionsClean: st.DemotionsClean,
	}
}

// fidelityLine renders one side of one row: the KPIs the paper argues
// about, from the raw counts and Eq. 1-2. The engine has no simulated
// clock, so power is the dynamic part of Eq. 2 on both sides (Eq. 3's
// static term prorates wall time).
func fidelityLine(t *testing.T, name string, kind tiered.Kind, side string, c sim.Counts, dram, nvm int) string {
	t.Helper()
	rep, err := model.Evaluate(&sim.Result{Policy: string(kind), Counts: c, DRAMPages: dram, NVMPages: nvm}, memspec.Default())
	if err != nil {
		t.Fatal(err)
	}
	n := float64(c.Accesses)
	return fmt.Sprintf(fidelityFormat, name, kind, side, c.Accesses,
		float64(c.HitsDRAM())/n, float64(c.HitsNVM())/n, c.Faults, c.Promotions, c.Demotions, c.WritesNVM,
		rep.AMAT.Total(), rep.APPR.Total()-rep.APPR.Static)
}

// readGolden returns the golden file's lines keyed by "workload policy side".
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(fidelityGolden)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) > 3 && f[0] != "#" {
			golden[strings.Join(f[:3], " ")] = line
		}
	}
	return golden
}

// TestFidelityAgainstSim replays every Table III workload under every
// online policy through the reference simulator and through the stepped
// asynchronous engine, and pins both sides' KPIs in fidelity.golden. The
// engine approximates the reference policies' LRU windows with scan epochs,
// so the two sides are not expected to agree; the golden file is the
// ratchet — a change that moves the engine's policy behaviour shows the
// divergence moving in its diff (regenerate with -update). What is exact is
// asserted: both sides serve every access, Accesses == Hits + Faults, the
// quiesced table passes CheckInvariants, and a second replay reproduces
// Stats bit for bit.
func TestFidelityAgainstSim(t *testing.T) {
	names := workload.Names()
	if testing.Short() {
		names = fidelityShort
	}
	golden := readGolden(t)
	var table []string
	for _, name := range names {
		recs, dram, nvm := fidelityTrace(t, name)
		for _, kind := range tiered.Kinds() {
			t.Run(name+"/"+string(kind), func(t *testing.T) {
				pol, err := referencePolicy(kind, dram, nvm)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.Run(trace.NewSliceSource(recs), pol, memspec.Default(), sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				st := replayStepped(t, kind, dram, nvm, recs)
				if again := replayStepped(t, kind, dram, nvm, recs); again != st {
					t.Fatalf("second replay diverged:\nfirst  %+v\nsecond %+v", st, again)
				}
				if n := int64(len(recs)); st.Accesses != n || ref.Counts.Accesses != n {
					t.Fatalf("trace has %d accesses, engine served %d, simulator %d", n, st.Accesses, ref.Counts.Accesses)
				}
				if st.Hits()+st.Faults != st.Accesses {
					t.Fatalf("hits %d + faults %d != accesses %d", st.Hits(), st.Faults, st.Accesses)
				}
				for _, side := range []struct {
					name   string
					counts sim.Counts
				}{{"sim", ref.Counts}, {"engine", engineCounts(st)}} {
					line := fidelityLine(t, name, kind, side.name, side.counts, dram, nvm)
					table = append(table, line)
					key := fmt.Sprintf("%s %s %s", name, kind, side.name)
					if *updateGolden {
						golden[key] = line
					} else if golden[key] != line {
						t.Errorf("%s differs (rerun with -update if the change is intended):\n%s\ngot  %s\nwant %s",
							fidelityGolden, fidelityHeader, line, golden[key])
					}
				}
			})
		}
	}
	t.Logf("simulator vs stepped engine (scale %g, seed %d, %d shards, ScanOnce every %d):\n%s\n%s",
		fidelityScale, fidelitySeed, fidelityShards, fidelityStep, fidelityHeader, strings.Join(table, "\n"))
	if *updateGolden {
		writeGolden(t, golden)
	}
}

// writeGolden rewrites the golden file in canonical order — workload, then
// policy, simulator line before engine line — keeping rows this run did not
// measure.
func writeGolden(t *testing.T, golden map[string]string) {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "# Simulator vs stepped asynchronous engine: TestFidelityAgainstSim, scale %g, seed %d.\n", fidelityScale, fidelitySeed)
	fmt.Fprintf(&b, "# Regenerate: go test ./internal/tiered -run TestFidelityAgainstSim -update\n%s\n", fidelityHeader)
	for _, name := range workload.Names() {
		for _, kind := range tiered.Kinds() {
			for _, side := range []string{"sim", "engine"} {
				if line, ok := golden[fmt.Sprintf("%s %s %s", name, kind, side)]; ok {
					b.WriteString(line + "\n")
				}
			}
		}
	}
	if err := os.WriteFile(fidelityGolden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
