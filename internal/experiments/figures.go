package experiments

import (
	"fmt"

	"hybridmem/internal/model"
)

// Series is one stacked component of a figure: one value per column.
type Series struct {
	Label  string
	Values []float64
}

// Group is one bar per column (the paper's Fig. 4 plots draw one group for
// CLOCK-DWF and one for the proposed scheme).
type Group struct {
	Name       string
	Components []Series
}

// Figure is a reproduction of one paper figure: stacked bars per workload
// with the paper's G-Mean and A-Mean columns appended.
type Figure struct {
	ID      string
	Title   string
	YLabel  string
	Columns []string
	Groups  []Group
	Notes   string
}

// Total returns the stacked total for a group at a column.
func (f *Figure) Total(group, col int) float64 {
	t := 0.0
	for _, c := range f.Groups[group].Components {
		t += c.Values[col]
	}
	return t
}

// ColumnIndex returns the index of a named column.
func (f *Figure) ColumnIndex(name string) (int, bool) {
	for i, c := range f.Columns {
		if c == name {
			return i, true
		}
	}
	return 0, false
}

// figureAMAT is the AMAT the performance figures plot: request service plus
// migrations. The page-fault (disk) term is identical across policies with
// equal total memory and is reported in the tables instead, matching the
// components the paper's Figs. 2b and 4c stack ("Read/Write Requests" and
// "Migrations").
func figureAMAT(r *model.Report) (requests, migrations float64) {
	return r.AMAT.HitDRAM + r.AMAT.HitNVM, r.AMAT.Migrations()
}

// figurePower groups APPR the way Figs. 2a and 4a stack it: static, dynamic
// (request servicing plus page-fault loads) and migration energy.
func figurePower(r *model.Report) (static, dynamic, migration float64) {
	return r.APPR.Static, r.APPR.Dynamic() + r.APPR.PageFault(), r.APPR.Migration()
}

// withMeans appends the paper's G-Mean and A-Mean columns to per-workload
// component rows. The arithmetic mean is taken per component (so components
// still sum to the mean total); the geometric-mean column scales the
// arithmetic component shares to the geometric mean of the totals.
func withMeans(columns []string, groups []Group) ([]string, []Group) {
	out := make([]Group, len(groups))
	for gi, g := range groups {
		n := len(g.Components[0].Values)
		totals := make([]float64, n)
		for _, c := range g.Components {
			for i, v := range c.Values {
				totals[i] += v
			}
		}
		amean, _ := mean(totals)
		// A non-positive total has no geometric mean: the column reads 0.
		gmean, _ := geoMean(totals)
		comps := make([]Series, len(g.Components))
		for ci, c := range g.Components {
			compMean, _ := mean(c.Values)
			gVal := 0.0
			if amean > 0 {
				gVal = gmean * compMean / amean
			}
			vals := append(append([]float64(nil), c.Values...), gVal, compMean)
			comps[ci] = Series{Label: c.Label, Values: vals}
		}
		out[gi] = Group{Name: g.Name, Components: comps}
	}
	cols := append(append([]string(nil), columns...), "G-Mean", "A-Mean")
	return cols, out
}

func workloadColumns(runs []*WorkloadRun) []string {
	cols := make([]string, len(runs))
	for i, r := range runs {
		cols[i] = r.Workload.Name
	}
	return cols
}

// Fig1 reproduces Fig. 1: the DRAM-only power breakdown (static / dynamic /
// page fault), each workload normalized to its own total.
func Fig1(runs []*WorkloadRun) *Figure {
	n := len(runs)
	static := make([]float64, n)
	dynamic := make([]float64, n)
	fault := make([]float64, n)
	for i, r := range runs {
		p := r.Report(DRAMOnly).APPR
		total := p.Total()
		static[i] = p.Static / total
		dynamic[i] = p.Dynamic() / total
		fault[i] = p.PageFault() / total
	}
	return &Figure{
		ID:      "fig1",
		Title:   "DRAM Power Breakdown",
		YLabel:  "Normalized Power Consumption",
		Columns: workloadColumns(runs),
		Groups: []Group{{Name: "dram-only", Components: []Series{
			{Label: "Static", Values: static},
			{Label: "Dynamic", Values: dynamic},
			{Label: "Page Fault", Values: fault},
		}}},
		Notes: "components of DRAM-only APPR normalized to its own total",
	}
}

// powerGroup builds one policy's power bars normalized to DRAM-only APPR.
func powerGroup(runs []*WorkloadRun, id PolicyID) Group {
	n := len(runs)
	static := make([]float64, n)
	dynamic := make([]float64, n)
	migration := make([]float64, n)
	for i, r := range runs {
		base := r.Report(DRAMOnly).APPR.Total()
		s, d, m := figurePower(r.Report(id))
		static[i], dynamic[i], migration[i] = s/base, d/base, m/base
	}
	return Group{Name: string(id), Components: []Series{
		{Label: "Static", Values: static},
		{Label: "Dynamic", Values: dynamic},
		{Label: "Migration", Values: migration},
	}}
}

// Fig2a reproduces Fig. 2a: CLOCK-DWF power breakdown normalized to the
// DRAM-only power consumption.
func Fig2a(runs []*WorkloadRun) *Figure {
	cols, groups := withMeans(workloadColumns(runs), []Group{powerGroup(runs, ClockDWF)})
	return &Figure{
		ID:      "fig2a",
		Title:   "CLOCK-DWF Power Breakdown Normalized to DRAM",
		YLabel:  "Normalized Power Consumption",
		Columns: cols,
		Groups:  groups,
		Notes:   "page-fault load energy is folded into Dynamic, as in the paper's stacking",
	}
}

// amatGroup builds one policy's AMAT bars normalized to the baseline
// policy's figure-AMAT.
func amatGroup(runs []*WorkloadRun, id, baseline PolicyID) Group {
	n := len(runs)
	req := make([]float64, n)
	mig := make([]float64, n)
	for i, r := range runs {
		bReq, bMig := figureAMAT(r.Report(baseline))
		base := bReq + bMig
		q, m := figureAMAT(r.Report(id))
		req[i], mig[i] = q/base, m/base
	}
	return Group{Name: string(id), Components: []Series{
		{Label: "Read/Write Requests", Values: req},
		{Label: "Migrations", Values: mig},
	}}
}

// Fig2b reproduces Fig. 2b: CLOCK-DWF AMAT normalized to DRAM-only.
func Fig2b(runs []*WorkloadRun) *Figure {
	cols, groups := withMeans(workloadColumns(runs), []Group{amatGroup(runs, ClockDWF, DRAMOnly)})
	return &Figure{
		ID:      "fig2b",
		Title:   "Normalized AMAT of CLOCK-DWF Compared to DRAM-Only Memory",
		YLabel:  "Normalized AMAT",
		Columns: cols,
		Groups:  groups,
		Notes:   "request + migration terms of Eq. 1; the disk term is policy-invariant and tabulated separately",
	}
}

// writesGroup builds one policy's NVM-write bars normalized to the NVM-only
// total write count.
func writesGroup(runs []*WorkloadRun, id PolicyID) Group {
	n := len(runs)
	reqs := make([]float64, n)
	fault := make([]float64, n)
	mig := make([]float64, n)
	for i, r := range runs {
		base := float64(r.Report(NVMOnly).NVMWrites.Total())
		w := r.Report(id).NVMWrites
		reqs[i] = float64(w.Requests) / base
		fault[i] = float64(w.PageFault) / base
		mig[i] = float64(w.Migration) / base
	}
	return Group{Name: string(id), Components: []Series{
		{Label: "Read/Write Requests", Values: reqs},
		{Label: "Page Fault", Values: fault},
		{Label: "Migration", Values: mig},
	}}
}

// Fig2c reproduces Fig. 2c: writes arriving at NVM under CLOCK-DWF,
// normalized to an NVM-only main memory.
func Fig2c(runs []*WorkloadRun) *Figure {
	cols, groups := withMeans(workloadColumns(runs), []Group{writesGroup(runs, ClockDWF)})
	return &Figure{
		ID:      "fig2c",
		Title:   "Number of Writes in CLOCK-DWF Normalized to NVM-Only Memory",
		YLabel:  "Normalized Number of Writes",
		Columns: cols,
		Groups:  groups,
	}
}

// Fig4a reproduces Fig. 4a: power breakdowns of CLOCK-DWF (left bars) and
// the proposed scheme (right bars), normalized to DRAM-only.
func Fig4a(runs []*WorkloadRun) *Figure {
	cols, groups := withMeans(workloadColumns(runs),
		[]Group{powerGroup(runs, ClockDWF), powerGroup(runs, Proposed)})
	return &Figure{
		ID:      "fig4a",
		Title:   "Power Breakdown of CLOCK-DWF and the Proposed Scheme Normalized to DRAM",
		YLabel:  "Normalized Power Consumption",
		Columns: cols,
		Groups:  groups,
	}
}

// Fig4b reproduces Fig. 4b: NVM writes of CLOCK-DWF and the proposed scheme
// normalized to NVM-only.
func Fig4b(runs []*WorkloadRun) *Figure {
	cols, groups := withMeans(workloadColumns(runs),
		[]Group{writesGroup(runs, ClockDWF), writesGroup(runs, Proposed)})
	return &Figure{
		ID:      "fig4b",
		Title:   "Number of Writes in CLOCK-DWF and the Proposed Scheme Normalized to NVM-Only",
		YLabel:  "Normalized Number of Writes",
		Columns: cols,
		Groups:  groups,
	}
}

// Fig4c reproduces Fig. 4c: the proposed scheme's AMAT normalized to
// CLOCK-DWF.
func Fig4c(runs []*WorkloadRun) *Figure {
	cols, groups := withMeans(workloadColumns(runs), []Group{amatGroup(runs, Proposed, ClockDWF)})
	return &Figure{
		ID:      "fig4c",
		Title:   "Normalized AMAT of the Proposed Scheme Compared to CLOCK-DWF",
		YLabel:  "Normalized AMAT",
		Columns: cols,
		Groups:  groups,
	}
}

// BuildFigure dispatches a figure builder by experiment ID.
func BuildFigure(id string, runs []*WorkloadRun) (*Figure, error) {
	switch id {
	case "fig1":
		return Fig1(runs), nil
	case "fig2a":
		return Fig2a(runs), nil
	case "fig2b":
		return Fig2b(runs), nil
	case "fig2c":
		return Fig2c(runs), nil
	case "fig4a":
		return Fig4a(runs), nil
	case "fig4b":
		return Fig4b(runs), nil
	case "fig4c":
		return Fig4c(runs), nil
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q", id)
	}
}

// FigureIDs lists the reproducible figures in paper order.
func FigureIDs() []string {
	return []string{"fig1", "fig2a", "fig2b", "fig2c", "fig4a", "fig4b", "fig4c"}
}
