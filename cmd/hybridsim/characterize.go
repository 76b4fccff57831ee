package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hybridmem/internal/experiments"
	"hybridmem/internal/memspec"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// setupCharacterize is `hybridsim characterize`: the paper's Table III
// workload characterization — working-set size, read and write counts —
// from the built-in generators, the reuse-distance profile of one of them
// (-reuse), or the same counts for a stored trace file (-trace).
func setupCharacterize(fs *flag.FlagSet) func(io.Writer) error {
	sh := traceFlags(fs)
	traceFile := fs.String("trace", "", "characterize a stored trace file instead")
	format := fs.String("format", "binary", "trace file format: binary or text")
	reuse := fs.String("reuse", "", "print the reuse-distance profile of this workload instead")

	return func(out io.Writer) error {
		switch {
		case *traceFile != "" && *reuse != "":
			return errors.New("-trace and -reuse are separate reports: -reuse profiles a built-in generator, not the file")
		case *traceFile != "":
			return characterizeFile(out, *traceFile, *format)
		case *reuse != "":
			return reuseProfile(out, *reuse, sh.scale, sh.seed)
		}
		cfg := sh.config()
		cfg.MinPages = 0 // show the raw scaling, no floor
		t, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		return t.Write(out)
	}
}

func characterizeFile(out io.Writer, path, format string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var src trace.Source
	switch format {
	case "binary":
		src = trace.NewReader(f)
	case "text":
		src = trace.NewTextReader(f)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	st := trace.CollectStats(src, workload.PageSizeBytes)
	if r, ok := src.(interface{ Err() error }); ok && r.Err() != nil {
		return r.Err()
	}
	fmt.Fprintf(out, "trace %s:\n", path)
	fmt.Fprintf(out, "  accesses:     %d (%d reads, %d writes; %.1f%% writes)\n",
		st.Total(), st.Reads, st.Writes, 100*st.WriteFraction())
	fmt.Fprintf(out, "  working set:  %d pages (%d KB)\n", st.FootprintPages(), st.WorkingSetKB())
	if st.Total() > 0 {
		fmt.Fprintf(out, "  mean CPU gap: %.1f ns\n", st.TotalGapNS/float64(st.Total()))
	}
	return nil
}

// reuseProfile prints the page-level reuse-distance histogram of a workload:
// the locality ground truth behind every LRU-family hit ratio.
func reuseProfile(out io.Writer, name string, scale float64, seed int64) error {
	spec, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	gen, err := workload.NewGenerator(spec, scale, seed)
	if err != nil {
		return err
	}
	r, err := trace.AnalyzeReuse(gen, workload.PageSizeBytes, 24)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s reuse-distance profile (%d accesses, %.3f%% cold):\n",
		name, r.Total(), 100*r.ColdFraction())
	for _, b := range r.Histogram() {
		share := 100 * float64(b.Count) / float64(r.Total())
		fmt.Fprintf(out, "  dist %7d..%-7d %10d (%.1f%%)\n", b.LoDistance, b.HiDistance, b.Count, share)
	}
	frames := memspec.DefaultSizing().TotalPages(gen.Pages())
	fmt.Fprintf(out, "implied LRU hit ratio at the paper's provisioning (%d frames): %.4f\n",
		frames, r.HitRatioAt(frames))
	return nil
}
