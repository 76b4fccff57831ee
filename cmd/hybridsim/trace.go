package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// setupTrace is `hybridsim trace`: generate a synthetic PARSEC-like memory
// trace and write it to a file in the binary or text trace format,
// optionally with the warmup (initialization) phase in front. With -specs,
// workload definitions come from a JSON file (the format written by
// workload.SaveSpecs) instead of the built-in Table III set.
func setupTrace(fs *flag.FlagSet) func(io.Writer) error {
	sh := traceFlags(fs)
	wl := fs.String("workload", "", "Table III workload name")
	outFile := fs.String("o", "", "output file (default <workload>.trc)")
	format := fs.String("format", "binary", "binary or text")
	warmup := fs.Bool("warmup", false, "prepend the warmup (initialization) phase")
	specsFile := fs.String("specs", "", "JSON file with custom workload specs")

	return func(out io.Writer) error {
		if *wl == "" {
			return fmt.Errorf("missing -workload (have: %v)", workload.Names())
		}
		// Everything that can be wrong with the command line is checked
		// before the output file is created: a bad -format must not
		// truncate a trace that is already there.
		var write func(io.Writer, trace.Source) (int, error)
		switch *format {
		case "binary":
			write = func(w io.Writer, src trace.Source) (int, error) {
				return trace.WriteAll(trace.NewWriter(w), src)
			}
		case "text":
			write = trace.WriteText
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		spec, err := traceSpec(*wl, *specsFile)
		if err != nil {
			return err
		}
		gen, err := workload.NewGenerator(spec, sh.scale, sh.seed)
		if err != nil {
			return err
		}
		var src trace.Source = gen
		if *warmup {
			src = trace.Concat(gen.WarmupSource(sh.seed+1), gen)
		}

		path := *outFile
		if path == "" {
			path = *wl + ".trc"
		}
		n, err := writeFile(path, func(w io.Writer) (int, error) { return write(w, src) })
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d records to %s (%s)\n", n, path, *format)
		return nil
	}
}

// writeFile creates path and fills it through emit. A file that could not
// be written completely is removed: a partial trace reads as a shorter
// valid one.
func writeFile(path string, emit func(io.Writer) (int, error)) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := emit(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return n, err
}

// traceSpec looks the workload up in specsFile, or in Table III without one.
func traceSpec(name, specsFile string) (workload.Spec, error) {
	if specsFile == "" {
		return lookupWorkload(name)
	}
	f, err := os.Open(specsFile)
	if err != nil {
		return workload.Spec{}, err
	}
	specs, err := workload.LoadSpecs(f)
	f.Close()
	if err != nil {
		return workload.Spec{}, err
	}
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return workload.Spec{}, fmt.Errorf("workload %q not in %s", name, specsFile)
}
