// Command hybridsim is the offline half of the repository behind one
// binary: the trace-driven simulator, the paper's tables and figures, the
// sensitivity studies around them, and the trace tooling.
//
//	hybridsim run          one workload under one policy, every model output
//	hybridsim figures      the paper's tables and figures, the claims summary, the arch study
//	hybridsim sweep        threshold / dram / pagefactor / adaptive / wearlevel / mix / seeds studies
//	hybridsim characterize Table III from the generators, a reuse profile, or a stored trace
//	hybridsim trace        write a synthetic PARSEC-like trace file
//
// Shared flags, after the subcommand name:
//
//	-scale F      trace scale (1.0 = full Table III sizes)          all subcommands
//	-seed N       trace generation seed                             all subcommands
//	-parallel N   worker-pool width (0 = all CPUs); output is       figures, sweep
//	              byte-identical at any width
//	-json         emit the hybridmem.results/v1 artifact, not text  figures, sweep
//	-out FILE     write output to FILE instead of stdout            figures, sweep
//
// `hybridsim <subcommand> -h` lists the rest. Examples:
//
//	hybridsim run -workload canneal -policy clock-dwf
//	hybridsim figures -id fig4a -csv
//	hybridsim figures -json -out grid.json
//	hybridsim sweep -kind threshold -workload raytrace
//	hybridsim sweep -kind mix -workload bodytrack,ferret,canneal
//	hybridsim characterize -reuse ferret
//	hybridsim trace -workload ferret -o ferret.trc
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hybridmem/internal/experiments"
	"hybridmem/internal/model"
	"hybridmem/internal/runner"
	"hybridmem/internal/workload"
)

// errBadFlags is returned after the flag package has already printed the
// parse error and the usage text.
var errBadFlags = errors.New("bad flags")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "hybridsim:", err)
		os.Exit(1)
	}
}

// subcommand is one tool behind the binary. setup declares its flags on fs
// and returns what to run once they are parsed.
type subcommand struct {
	name, summary string
	setup         func(fs *flag.FlagSet) func(stdout io.Writer) error
}

var subcommands = []subcommand{
	{"run", "one workload under one policy, every model output", setupRun},
	{"figures", "the paper's tables and figures, the claims summary, the arch study", setupFigures},
	{"sweep", "sensitivity studies around the paper's design choices", setupSweep},
	{"characterize", "Table III from the generators, a reuse profile, or a stored trace", setupCharacterize},
	{"trace", "write a synthetic PARSEC-like trace file", setupTrace},
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: hybridsim <subcommand> [flags]")
	for _, c := range subcommands {
		fmt.Fprintf(w, "  %-13s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, "hybridsim <subcommand> -h lists a subcommand's flags")
}

// run is hybridsim behind its process boundary: pick the subcommand, parse
// its flags, run it. Results go to stdout (or -out), usage to stderr; every
// rejection is a returned error, so tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		usage(stderr)
		return errBadFlags
	}
	switch args[0] {
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return flag.ErrHelp
	}
	for _, c := range subcommands {
		if c.name != args[0] {
			continue
		}
		fs := flag.NewFlagSet("hybridsim "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		action := c.setup(fs)
		if err := fs.Parse(args[1:]); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return err
			}
			return errBadFlags
		}
		if fs.NArg() > 0 {
			return fmt.Errorf("%s: unexpected argument %q (every option is a -flag)", c.name, fs.Arg(0))
		}
		if err := action(stdout); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		return nil
	}
	usage(stderr)
	return fmt.Errorf("unknown subcommand %q", args[0])
}

// shared holds the flags that mean the same thing in every subcommand.
type shared struct {
	scale    float64
	seed     int64
	parallel int
	jsonOut  bool
	outPath  string
}

// traceFlags declares the flags that select a trace: every subcommand has
// them.
func traceFlags(fs *flag.FlagSet) *shared {
	s := &shared{}
	fs.Float64Var(&s.scale, "scale", 0.02, "trace scale (1.0 = full Table III sizes)")
	fs.Int64Var(&s.seed, "seed", 1, "trace generation seed")
	return s
}

// execFlags adds the execution flags of the subcommands that run grids.
func execFlags(fs *flag.FlagSet) *shared {
	s := traceFlags(fs)
	fs.IntVar(&s.parallel, "parallel", 0, "worker-pool width (0 = all CPUs); output is identical at any width")
	fs.BoolVar(&s.jsonOut, "json", false, "emit the machine-readable hybridmem.results/v1 artifact instead of text")
	fs.StringVar(&s.outPath, "out", "", "write output to this file instead of stdout")
	return s
}

// config is the experiment configuration the shared flags select.
func (s *shared) config() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = s.scale
	cfg.Seed = s.seed
	cfg.Parallel = s.parallel
	// One cache per invocation: every stage of a subcommand replays the
	// same materialized traces.
	cfg.Cache = runner.NewTraceCache()
	return cfg
}

// lookupWorkload resolves a Table III workload name.
func lookupWorkload(name string) (workload.Spec, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return spec, fmt.Errorf("unknown workload %q (have: %v)", name, workload.Names())
	}
	return spec, nil
}

// hitsAndMigrations is the "AMAT hits+mig" column of the comparison tables:
// Eq. 1 without the disk term, which no placement policy changes much.
func hitsAndMigrations(r *model.Report) string {
	return fmt.Sprintf("%.1f", r.AMAT.HitDRAM+r.AMAT.HitNVM+r.AMAT.Migrations())
}

// comparisonCells are the four columns the arch and mix tables print per
// policy: AMAT hits+mig, power, NVM writes, DRAM hit ratio.
func comparisonCells(r *model.Report) []string {
	return []string{
		hitsAndMigrations(r),
		fmt.Sprintf("%.2f", r.APPR.Total()),
		fmt.Sprintf("%d", r.NVMWrites.Total()),
		fmt.Sprintf("%.3f", r.Probabilities.PHitDRAM),
	}
}
