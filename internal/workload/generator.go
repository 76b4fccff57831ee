package workload

import (
	"fmt"
	"math"
	"math/rand"

	"hybridmem/internal/trace"
)

// PageSizeBytes is the data-page size the generators emit addresses for.
const PageSizeBytes = 4096

// lineBytes is the line granularity of emitted addresses.
const lineBytes = 64

// cores is the number of CPUs accesses are attributed to (Table II).
const cores = 4

// Generator emits one benchmark's measured (ROI) main-memory access stream.
// It implements trace.Source. Streams are deterministic functions of
// (spec, scale, seed).
//
// Guarantees (all verified by tests):
//   - exactly round(scale*Reads) reads and round(scale*Writes) writes;
//   - no address falls outside the scaled footprint, and the union of the
//     warmup stream and the ROI touches exactly the scaled page count (the
//     Table III working set characterizes the whole trace);
//   - archive pages (the share beyond Pattern.ResidentFraction) receive
//     round(ROIArchiveVisits*archive) visits, evenly spread through the
//     ROI — the workload's page-fault pressure.
type Generator struct {
	spec  Spec
	rng   *rand.Rand
	pages int
	// page-space layout: [0, resident) is the reused structure, of which
	// [hotStart, hotStart+hot) (mod resident) is the rotating hot set and
	// its first writeHot pages are the write-favoured subset;
	// [resident, pages) is the archive.
	resident, archive  int
	hot, writeHot      int
	total              int64
	remReads, remWrite int64
	emitted            int64

	// coverage schedule (Bresenham-interleaved into the stream)
	schedTotal, schedDone int64

	// pattern state
	phaseAccesses int64
	phaseShift    int
	hotStart      int
	lastPage      uint64
	havePage      bool
	seqOff        int  // run position, an offset within the current region
	hotRun        bool // whether the current run lives in the hot region
	pRepeat       float64
	pRun          float64
	meanGap       float64
	maxGap        float64 // gaps are capped here: 20 means, or what GapNS can hold
	cpu           uint8
}

// NewGenerator returns the stream for spec scaled by scale (1.0 = the full
// Table III trace). Page counts and request counts scale together, so
// accesses-per-page — which drives fault pressure and static-power proration
// — is preserved.
func NewGenerator(spec Spec, scale float64, seed int64) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("workload %s: scale %v outside (0,1]", spec.Name, scale)
	}
	pages := scaleInt(spec.Pages(), scale, 16)
	reads := scaleInt64(spec.Reads, scale)
	writes := scaleInt64(spec.Writes, scale)
	if reads+writes == 0 {
		return nil, fmt.Errorf("workload %s: no requests after scaling", spec.Name)
	}

	g := &Generator{
		spec:     spec,
		rng:      rand.New(rand.NewSource(seed)),
		pages:    pages,
		total:    reads + writes,
		remReads: reads, remWrite: writes,
		pRepeat: 1 - 1/float64(spec.Pattern.RepeatBurst),
		pRun:    1 - 1/float64(spec.Pattern.SeqRunLen),
		// Scaling shrinks the provisioned memory (static power) but not the
		// per-access service time, so the CPU gap is inflated by 1/scale to
		// keep the Eq. 3 static-energy-per-request scale-invariant:
		// memGB * time-per-access stays what the full-size trace yields.
		meanGap: spec.Pattern.MeanGapNS / scale,
	}
	// A gap is capped at 20 means, which a tiny scale inflates past what
	// GapNS (uint32 ns) holds; converting an out-of-range float is
	// implementation-defined, so such gaps saturate. MaxUint32-0.5 is the
	// largest gap that rounds into range.
	g.maxGap = math.Min(20*g.meanGap, math.MaxUint32-0.5)
	g.resident = clampInt(int(spec.Pattern.ResidentFraction*float64(pages)+0.5), 1, pages-1)
	g.archive = pages - g.resident
	g.hot = clampInt(int(spec.Pattern.HotFraction*float64(pages)+0.5), 1, g.resident)
	g.writeHot = clampInt(int(spec.Pattern.WriteHotFraction*float64(pages)+0.5), 1, g.hot)
	g.schedTotal = int64(spec.Pattern.ROIArchiveVisits*float64(g.archive) + 0.5)
	if g.schedTotal > g.total {
		return nil, fmt.Errorf("workload %s: scale %v leaves %d accesses for %d scheduled archive visits",
			spec.Name, scale, g.total, g.schedTotal)
	}
	if spec.Pattern.PhaseAccesses > 0 {
		g.phaseAccesses = int64(scaleInt(int(spec.Pattern.PhaseAccesses), scale, 1))
		g.phaseShift = scaleInt(spec.Pattern.PhaseShiftPages, scale, 1)
	}
	return g, nil
}

func scaleInt(v int, scale float64, min int) int {
	s := int(float64(v)*scale + 0.5)
	if s < min {
		s = min
	}
	return s
}

func scaleInt64(v int64, scale float64) int64 {
	return int64(float64(v)*scale + 0.5)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// regionPage maps the current run offset into the run's region: the rotating
// hot window for hot runs, the whole resident structure otherwise.
func (g *Generator) regionPage() uint64 {
	if g.hotRun {
		return uint64((g.hotStart + g.seqOff%g.hot) % g.resident)
	}
	return uint64(g.seqOff % g.resident)
}

// Pages returns the scaled footprint in pages.
func (g *Generator) Pages() int { return g.pages }

// TotalAccesses returns the scaled request count.
func (g *Generator) TotalAccesses() int64 { return g.total }

// Spec returns the workload description this generator was built from.
func (g *Generator) Spec() Spec { return g.spec }

// Next implements trace.Source.
func (g *Generator) Next() (trace.Record, bool) {
	if g.emitted >= g.total {
		return trace.Record{}, false
	}

	// Archive visits: cold data touched sparsely during the ROI (the page
	// faults of the measured window), round-robin over the archive range,
	// Bresenham-interleaved so they spread evenly through the stream.
	var page uint64
	scheduled := false
	if g.schedDone < g.schedTotal && g.schedDone*g.total <= g.emitted*g.schedTotal {
		page = uint64(g.resident + int(g.schedDone%int64(g.archive)))
		g.schedDone++
		scheduled = true
	}

	if !scheduled {
		switch {
		case g.havePage && g.rng.Float64() < g.pRepeat:
			// Temporal burst: stay on the same page.
			page = g.lastPage
		case g.havePage && g.rng.Float64() < g.pRun:
			// Sequential run: advance within the region it started in, so
			// hot runs keep hammering the hot set (the hot bias applies to
			// runs, not just their first access).
			g.seqOff++
			page = g.regionPage()
		default:
			// Start a new run: in the hot window with probability HotBias,
			// anywhere in the resident structure otherwise.
			g.hotRun = g.rng.Float64() < g.spec.Pattern.HotBias
			if g.hotRun {
				g.seqOff = g.rng.Intn(g.hot)
			} else {
				g.seqOff = g.rng.Intn(g.resident)
			}
			page = g.regionPage()
		}
	}

	// Exact op accounting: draw proportionally to the remaining budget.
	op := trace.OpRead
	if g.rng.Int63n(g.remReads+g.remWrite) < g.remWrite {
		op = trace.OpWrite
		g.remWrite--
	} else {
		g.remReads--
	}

	// Writes cluster on the write-favoured subset (never overriding a
	// scheduled coverage touch).
	if op == trace.OpWrite && !scheduled && g.rng.Float64() < g.spec.Pattern.WriteHotBias {
		page = uint64((g.hotStart + g.rng.Intn(g.writeHot)) % g.resident)
	}

	g.lastPage = page
	g.havePage = true
	g.emitted++

	// Phase rotation: slide the hot window through the resident range.
	if g.phaseAccesses > 0 && g.emitted%g.phaseAccesses == 0 {
		g.hotStart = (g.hotStart + g.phaseShift) % g.resident
	}

	gap := 0.0
	if m := g.meanGap; m > 0 {
		gap = g.rng.ExpFloat64() * m
		if gap > g.maxGap {
			gap = g.maxGap
		}
	}
	g.cpu = (g.cpu + 1) % cores

	line := uint64(g.rng.Intn(PageSizeBytes / lineBytes))
	return trace.Record{
		Addr:  page*PageSizeBytes + line*lineBytes,
		GapNS: uint32(gap + 0.5),
		Op:    op,
		CPU:   g.cpu,
	}, true
}

// WarmupSource returns the pre-ROI initialization stream: every page touched
// exactly once — archive first, then the resident structure so it ends up
// memory-resident — with ops drawn at the workload's write ratio and no CPU
// gaps. Experiments run it through the policy without recording statistics,
// mirroring the paper's use of the benchmark ROI only.
func (g *Generator) WarmupSource(seed int64) trace.Source {
	rng := rand.New(rand.NewSource(seed))
	wf := g.spec.WriteFraction()
	i := 0
	var cpu uint8
	return trace.FuncSource(func() (trace.Record, bool) {
		if i >= g.pages {
			return trace.Record{}, false
		}
		var page int
		if i < g.archive {
			page = g.resident + i
		} else {
			page = i - g.archive
		}
		i++
		op := trace.OpRead
		if rng.Float64() < wf {
			op = trace.OpWrite
		}
		cpu = (cpu + 1) % cores
		line := uint64(rng.Intn(PageSizeBytes / lineBytes))
		return trace.Record{
			Addr: uint64(page)*PageSizeBytes + line*lineBytes,
			Op:   op,
			CPU:  cpu,
		}, true
	})
}
