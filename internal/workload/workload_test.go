package workload

import (
	"math"
	"testing"
	"testing/quick"

	"hybridmem/internal/trace"
)

func TestAllSpecsValid(t *testing.T) {
	specs := PARSEC()
	if len(specs) != 12 {
		t.Fatalf("got %d workloads, want 12 (Table III minus swaptions)", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestTableIIIValues(t *testing.T) {
	// Spot-check the characterization columns against Table III verbatim.
	cases := []struct {
		name   string
		wssKB  int
		reads  int64
		writes int64
	}{
		{"blackscholes", 5188, 26242, 0},
		{"canneal", 164768, 24432900, 653623},
		{"streamcluster", 15452, 168666464, 448612},
		{"vips", 115380, 5802657, 4117660},
	}
	for _, c := range cases {
		s, ok := ByName(c.name)
		if !ok {
			t.Fatalf("%s missing", c.name)
		}
		if s.WorkingSetKB != c.wssKB || s.Reads != c.reads || s.Writes != c.writes {
			t.Errorf("%s = %d KB / %d R / %d W, want %d/%d/%d",
				c.name, s.WorkingSetKB, s.Reads, s.Writes, c.wssKB, c.reads, c.writes)
		}
	}
}

func TestByNameMissing(t *testing.T) {
	if _, ok := ByName("swaptions"); ok {
		t.Error("swaptions is excluded by the paper and must not exist")
	}
	if len(Names()) != 12 {
		t.Error("Names() length wrong")
	}
}

func TestGeneratorValidation(t *testing.T) {
	spec, _ := ByName("bodytrack")
	if _, err := NewGenerator(spec, 0, 1); err == nil {
		t.Error("zero scale should error")
	}
	if _, err := NewGenerator(spec, 1.5, 1); err == nil {
		t.Error("scale > 1 should error")
	}
	bad := spec
	bad.Pattern.HotFraction = 0.9 // > ResidentFraction
	if _, err := NewGenerator(bad, 1, 1); err == nil {
		t.Error("invalid pattern should error")
	}
	// A pathological archive-visit rate leaves no room in the stream.
	dense := spec
	dense.Pattern.ROIArchiveVisits = 1e7
	if _, err := NewGenerator(dense, 0.01, 1); err == nil {
		t.Error("archive visits exceeding the stream length should error")
	}
}

// characterize drains a generator and verifies its advertised exactness.
func characterize(t *testing.T, name string, scale float64) (*Generator, *trace.Stats) {
	t.Helper()
	spec, ok := ByName(name)
	if !ok {
		t.Fatalf("%s missing", name)
	}
	g, err := NewGenerator(spec, scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.CollectStats(g, PageSizeBytes)
	return g, st
}

func TestExactCountsAndFootprint(t *testing.T) {
	for _, name := range Names() {
		spec, _ := ByName(name)
		scale := 0.01
		g, st := characterize(t, name, scale)
		wantReads := scaleInt64(spec.Reads, scale)
		wantWrites := scaleInt64(spec.Writes, scale)
		if st.Reads != wantReads || st.Writes != wantWrites {
			t.Errorf("%s: reads/writes = %d/%d, want %d/%d",
				name, st.Reads, st.Writes, wantReads, wantWrites)
		}
		// The ROI stays inside the footprint; the exact working set is the
		// union with the warmup stream (tested below).
		if st.FootprintPages() > g.Pages() {
			t.Errorf("%s: ROI footprint %d pages exceeds %d",
				name, st.FootprintPages(), g.Pages())
		}
		if st.Total() != g.TotalAccesses() {
			t.Errorf("%s: total %d, want %d", name, st.Total(), g.TotalAccesses())
		}
	}
}

func TestWarmupPlusROIFootprintExact(t *testing.T) {
	for _, name := range Names() {
		spec, _ := ByName(name)
		g, err := NewGenerator(spec, 0.01, 42)
		if err != nil {
			t.Fatal(err)
		}
		st := trace.CollectStats(trace.Concat(g.WarmupSource(43), g), PageSizeBytes)
		if st.FootprintPages() != g.Pages() {
			t.Errorf("%s: warmup+ROI footprint %d pages, want exactly %d",
				name, st.FootprintPages(), g.Pages())
		}
	}
}

func TestFullScaleCharacterizationBlackscholes(t *testing.T) {
	// blackscholes is small enough to regenerate Table III at scale 1: the
	// ROI reproduces the request counts exactly and the whole trace
	// (warmup + ROI) reproduces the working-set size exactly.
	spec, _ := ByName("blackscholes")
	g, err := NewGenerator(spec, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.CollectStats(trace.Concat(g.WarmupSource(43), g), PageSizeBytes)
	if st.Reads < 26242 || st.Writes != 0 {
		t.Errorf("reads/writes = %d/%d, want >= 26242 reads (warmup adds reads), 0 writes", st.Reads, st.Writes)
	}
	if st.WorkingSetKB() != 5188 {
		t.Errorf("WSS = %d KB, want 5188", st.WorkingSetKB())
	}
	g2, _ := NewGenerator(spec, 1, 42)
	roi := trace.CollectStats(g2, PageSizeBytes)
	if roi.Reads != 26242 || roi.Writes != 0 {
		t.Errorf("ROI reads/writes = %d/%d, want 26242/0", roi.Reads, roi.Writes)
	}
}

func TestDeterminism(t *testing.T) {
	spec, _ := ByName("raytrace")
	g1, _ := NewGenerator(spec, 0.01, 7)
	g2, _ := NewGenerator(spec, 0.01, 7)
	g3, _ := NewGenerator(spec, 0.01, 8)
	same, diff := true, false
	for {
		r1, ok1 := g1.Next()
		r2, ok2 := g2.Next()
		r3, ok3 := g3.Next()
		if ok1 != ok2 || ok1 != ok3 {
			t.Fatal("stream lengths diverged")
		}
		if !ok1 {
			break
		}
		if r1 != r2 {
			same = false
		}
		if r1 != r3 {
			diff = true
		}
	}
	if !same {
		t.Error("same seed must replay the same stream")
	}
	if !diff {
		t.Error("different seed should produce a different stream")
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, name := range []string{"canneal", "streamcluster", "dedup"} {
		spec, _ := ByName(name)
		g, err := NewGenerator(spec, 0.005, 3)
		if err != nil {
			t.Fatal(err)
		}
		limit := uint64(g.Pages()) * PageSizeBytes
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Addr >= limit {
				t.Fatalf("%s: address %#x beyond footprint %#x", name, r.Addr, limit)
			}
			if r.Addr%lineBytes != 0 {
				t.Fatalf("%s: address %#x not line aligned", name, r.Addr)
			}
			if r.CPU >= cores {
				t.Fatalf("%s: cpu %d out of range", name, r.CPU)
			}
		}
	}
}

func TestWarmupTouchesEveryPageOnce(t *testing.T) {
	spec, _ := ByName("ferret")
	g, err := NewGenerator(spec, 0.01, 5)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.CollectStats(g.WarmupSource(1), PageSizeBytes)
	if st.Total() != int64(g.Pages()) {
		t.Errorf("warmup emitted %d accesses, want %d", st.Total(), g.Pages())
	}
	if st.FootprintPages() != g.Pages() {
		t.Errorf("warmup covered %d pages, want %d", st.FootprintPages(), g.Pages())
	}
	// Warmup ends on the resident structure so it stays memory-resident:
	// the last record must be a resident page.
	recs, _ := trace.Materialize(g.WarmupSource(1), 0)
	last := recs[len(recs)-1]
	if got := int(last.Page(PageSizeBytes)); got >= g.resident {
		t.Errorf("warmup ends on archive page %d (resident=%d)", got, g.resident)
	}
}

func TestWriteFractionMatchesSpec(t *testing.T) {
	spec, _ := ByName("vips")
	_, st := characterize(t, "vips", 0.01)
	got := st.WriteFraction()
	want := spec.WriteFraction()
	if got < want-0.01 || got > want+0.01 {
		t.Errorf("write fraction = %v, want ~%v", got, want)
	}
}

func TestGapMeansAreCalibrated(t *testing.T) {
	// The mean gap must land near MeanGapNS/scale (within 15%): the gap is
	// inflated by 1/scale so the static-power proration of Eq. 3 is
	// scale-invariant (see NewGenerator).
	const scale = 0.02
	for _, name := range []string{"blackscholes", "streamcluster", "bodytrack"} {
		spec, _ := ByName(name)
		g, st := characterize(t, name, scale)
		got := st.TotalGapNS / float64(g.TotalAccesses())
		want := spec.Pattern.MeanGapNS / scale
		if want == 0 {
			continue
		}
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("%s: mean gap %.1f, want ~%.1f", name, got, want)
		}
	}
}

func TestPhaseRotationMovesHotSet(t *testing.T) {
	// canneal rotates its hot set; the set of most-frequent pages in an
	// early window must differ from a late window.
	spec, _ := ByName("canneal")
	g, err := NewGenerator(spec, 0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := func(n int) map[uint64]int {
		m := map[uint64]int{}
		for i := 0; i < n; i++ {
			r, ok := g.Next()
			if !ok {
				break
			}
			m[r.Page(PageSizeBytes)]++
		}
		return m
	}
	early := counts(20000)
	// Skip ahead several phases.
	for i := 0; i < 150000; i++ {
		g.Next()
	}
	late := counts(20000)
	topPage := func(m map[uint64]int) (best uint64) {
		bestN := -1
		for p, n := range m {
			if n > bestN || (n == bestN && p < best) {
				best, bestN = p, n
			}
		}
		return best
	}
	if topPage(early) == topPage(late) {
		t.Error("hot set did not rotate between phases")
	}
}

// TestQuickExactCounts verifies across arbitrary (workload, scale, seed)
// triples that the generator's advertised exactness holds: the ROI stream
// has exactly the scaled read and write counts and never leaves the
// footprint.
func TestQuickExactCounts(t *testing.T) {
	names := Names()
	f := func(wl uint8, scalePct uint8, seed int64) bool {
		spec, _ := ByName(names[int(wl)%len(names)])
		scale := 0.002 + float64(scalePct%20)/2000 // 0.002 .. 0.0115
		g, err := NewGenerator(spec, scale, seed)
		if err != nil {
			// Tiny scales can leave no room for archive visits; that is a
			// documented, validated failure, not a property violation.
			return true
		}
		limit := uint64(g.Pages()) * PageSizeBytes
		var reads, writes int64
		for {
			r, ok := g.Next()
			if !ok {
				break
			}
			if r.Addr >= limit {
				return false
			}
			if r.Op == trace.OpWrite {
				writes++
			} else {
				reads++
			}
		}
		return reads == scaleInt64(spec.Reads, scale) &&
			writes == scaleInt64(spec.Writes, scale)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGapSaturatesAtTinyScale(t *testing.T) {
	// The CPU gap is inflated by 1/scale and capped at 20 means, which
	// passes what GapNS (uint32 nanoseconds) holds once MeanGapNS/scale
	// exceeds 2^32/20: blackscholes below scale 4.2e-5. Such a gap must
	// saturate, not wrap. Table III's blackscholes has no requests left at
	// 1e-5, so the test keeps its pattern and gives it more of them.
	spec, _ := ByName("blackscholes")
	spec.Reads *= 10000
	const scale = 1e-5
	g, err := NewGenerator(spec, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	mean := spec.Pattern.MeanGapNS / scale
	saturated, n := 0, 0
	for r, ok := g.Next(); ok; r, ok = g.Next() {
		n++
		if r.GapNS == math.MaxUint32 {
			saturated++
		}
	}
	// An exponential gap passes the limit with probability exp(-limit/mean).
	want := float64(n) * math.Exp(-math.MaxUint32/mean)
	if float64(saturated) < want/2 || float64(saturated) > want*2 {
		t.Errorf("%d of %d gaps saturated, want about %.0f", saturated, n, want)
	}
}
