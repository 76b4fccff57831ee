package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"

	"hybridmem/internal/experiments"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/report"
)

// setupFigures is `hybridsim figures`: every table and figure of the
// paper's evaluation, the headline-claims summary and the Section III
// architecture comparison. Figures print as stacked text bars (or CSV with
// -csv), tables as aligned text; -json instead runs the full evaluation
// grid and emits the stable hybridmem.results/v1 artifact.
func setupFigures(fs *flag.FlagSet) func(io.Writer) error {
	sh := execFlags(fs)
	id := fs.String("id", "all", "experiment id (all, table2-4, fig1, fig2a-c, fig4a-c, claims, arch)")
	csv := fs.Bool("csv", false, "emit figures as CSV instead of text bars")
	adaptive := fs.Bool("adaptive", false, "use the adaptive-threshold variant of the proposed scheme")

	return func(stdout io.Writer) error {
		if sh.jsonOut && (*id != "all" || *csv) {
			return errors.New("-json emits the full grid artifact and cannot be combined with -id or -csv")
		}
		cfg := sh.config()
		cfg.Adaptive = *adaptive
		return report.WithOutput(stdout, sh.outPath, func(out io.Writer) error {
			if sh.jsonOut {
				runs, err := experiments.RunAll(cfg)
				if err != nil {
					return err
				}
				return experiments.GridArtifact("figures", cfg, runs).Write(out)
			}
			return emitFigures(out, *id, cfg, *csv)
		})
	}
}

func emitFigures(out io.Writer, id string, cfg experiments.Config, csv bool) error {
	// The figures and the claims summary read the evaluation grid; the
	// tables and the arch study do not.
	var runs []*experiments.WorkloadRun
	if id == "all" || id == "claims" || slices.Contains(experiments.FigureIDs(), id) {
		var err error
		if runs, err = experiments.RunAll(cfg); err != nil {
			return err
		}
	}

	emit := func(eid string) error {
		var write func(io.Writer) error
		switch eid {
		case "table2":
			write = experiments.Table2(memspec.DefaultMachine()).Write
		case "table3":
			t, err := experiments.Table3(cfg)
			if err != nil {
				return err
			}
			write = t.Write
			if csv {
				write = t.WriteCSV
			}
		case "table4":
			write = experiments.Table4(cfg.Spec).Write
		case "claims":
			fmt.Fprintln(out, "Headline claims (paper vs this reproduction):")
			write = experiments.ExtractClaims(runs).Write
		case "arch":
			t, err := archTable(cfg)
			if err != nil {
				return err
			}
			write = t.Write
		default:
			f, err := experiments.BuildFigure(eid, runs)
			if err != nil {
				return err
			}
			if csv {
				return experiments.FigureCSV(f).WriteCSV(out)
			}
			write = experiments.RenderFigure(f).Write
		}
		if err := write(out); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out)
		return err
	}

	if id != "all" {
		return emit(id)
	}
	order := append([]string{"table2", "table3", "table4"}, experiments.FigureIDs()...)
	for _, eid := range append(order, "claims", "arch") {
		if err := emit(eid); err != nil {
			return fmt.Errorf("%s: %w", eid, err)
		}
	}
	return nil
}

func archTable(cfg experiments.Config) (*report.Table, error) {
	t := &report.Table{
		Title: "Architecture comparison (Section III): exclusive migration vs DRAM-as-cache",
		Headers: []string{"Workload", "Arch", "AMAT hits+mig (ns)", "Power (nJ)",
			"NVM writes", "DRAM hit ratio"},
	}
	rows, err := experiments.ArchAll([]string{"ferret", "streamcluster", "canneal", "vips"}, cfg)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		add := func(arch string, r *model.Report) {
			t.AddRow(append([]string{row.Workload, arch}, comparisonCells(r)...)...)
		}
		add("proposed (migration)", row.Proposed)
		add("dram-cache", row.Cache)
		add("static-partition", row.Static)
		add("clock-dwf", row.DWF)
	}
	return t, nil
}
