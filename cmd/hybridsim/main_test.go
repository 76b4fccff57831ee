package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hybridmem/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden and testdata/flags.golden from this run")

// goldenArgs is what every line of testdata/cases.txt is run with.
var goldenArgs = []string{"-scale", "0.005", "-seed", "1"}

// hybridsim drives run in-process and returns its stdout.
func hybridsim(t *testing.T, args ...string) string {
	t.Helper()
	var out, errw bytes.Buffer
	if err := run(args, &out, &errw); err != nil {
		t.Fatalf("hybridsim %v: %v\n%s", args, err, errw.String())
	}
	if errw.Len() > 0 {
		t.Errorf("hybridsim %v wrote to stderr:\n%s", args, errw.String())
	}
	return out.String()
}

// outputFile returns the file a command line names with -o or -out.
func outputFile(args []string) string {
	for i, a := range args[:len(args)-1] {
		if a == "-o" || a == "-out" {
			return args[i+1]
		}
	}
	return ""
}

// gridSized reports whether a golden command line simulates a whole
// evaluation grid (or several): about a second each, ten under the race
// detector.
func gridSized(args []string) bool {
	switch line := strings.Join(args, " "); {
	case args[0] == "sweep":
		return true
	case args[0] == "figures":
		return !strings.Contains(line, "-id table")
	}
	return false
}

// TestGolden replays every command line of testdata/cases.txt and compares
// its stdout (and the checksum of the file it wrote, if any) with the golden
// the five pre-merge binaries produced. -short and the race build keep one
// grid-sized case per subcommand and every cheap one.
func TestGolden(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	cases, err := os.ReadFile(filepath.Join(testdata, "cases.txt"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	quick := testing.Short() || raceEnabled
	kept := map[string]bool{}
	for _, line := range strings.Split(string(cases), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("cases.txt: no tab in %q", line)
		}
		args := strings.Fields(rest)
		if quick && gridSized(args) {
			if kept[args[0]] {
				continue
			}
			kept[args[0]] = true
		}
		got := hybridsim(t, append(args, goldenArgs...)...)
		if file := outputFile(args); file != "" {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got += fmt.Sprintf("%x  %s\n", sha256.Sum256(data), file)
		}
		path := filepath.Join(testdata, "golden", name)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("hybridsim %s: output differs from testdata/golden/%s (rerun with -update if the change is intended)\ngot:\n%s", rest, name, got)
		}
	}
}

// TestFlags pins the accepted (subcommand, flag) pairs and their defaults
// against the list read off the pre-merge binaries' -h output, minus
// `trace -filtered`, which went with the cache model.
func TestFlags(t *testing.T) {
	var got strings.Builder
	for _, c := range subcommands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.setup(fs)
		fs.VisitAll(func(f *flag.Flag) {
			got.WriteString(c.name + " -" + f.Name)
			// flag.PrintDefaults shows no default for a zero value.
			if f.DefValue != "" && f.DefValue != "0" && f.DefValue != "false" {
				got.WriteString(" " + f.DefValue)
			}
			got.WriteString("\n")
		})
	}
	const path = "testdata/flags.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flags differ from %s:\n%s", path, got.String())
	}
}

// TestRejections holds the command lines that must fail, each with a
// message that names what was wrong, and none with any output.
func TestRejections(t *testing.T) {
	dir := t.TempDir()
	kept := filepath.Join(dir, "kept.trc")
	if err := os.WriteFile(kept, []byte("a trace that is already there"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		// Stray positional arguments: the old tools ignored them and
		// everything after them, and ran with the defaults.
		{[]string{"run", "bodytrack", "-scale", "0.002"}, `unexpected argument "bodytrack"`},
		{[]string{"figures", "-id", "table2", "fig1"}, `unexpected argument "fig1"`},
		{[]string{"sweep", "threshold"}, `unexpected argument "threshold"`},
		{[]string{"characterize", "ferret.trc"}, `unexpected argument "ferret.trc"`},
		{[]string{"trace", "-workload", "ferret", "out.trc"}, `unexpected argument "out.trc"`},
		// -dram-frac used to clamp silently to one frame of DRAM or of NVM.
		{[]string{"run", "-dram-frac", "0"}, "-dram-frac 0"},
		{[]string{"run", "-dram-frac", "1.5"}, "-dram-frac 1.5"},
		{[]string{"run", "-dram-frac", "1"}, "-dram-frac 1"},
		// -reuse used to be dropped when -trace was given.
		{[]string{"characterize", "-trace", kept, "-reuse", "ferret"}, "-trace and -reuse"},
		// A bad -format used to truncate the output file first.
		{[]string{"trace", "-workload", "ferret", "-format", "xml", "-o", kept}, `unknown format "xml"`},
		{[]string{"sweep", "-kind", "seeds", "-seeds", "1"}, "needs >= 2 seeds"},
		{[]string{"sweep", "-kind", "seeds", "-seeds", "-3"}, "needs >= 2 seeds"},

		{[]string{"run", "-policy", "lru", "-scale", "0.002"}, `unknown policy "lru"`},
		{[]string{"run", "-workload", "swaptions"}, `unknown workload "swaptions"`},
		{[]string{"run", "-scale", "2"}, "scale 2 outside (0,1]"},
		{[]string{"figures", "-id", "fig9"}, "fig9"},
		{[]string{"figures", "-id", "replacement"}, "replacement"},
		{[]string{"figures", "-json", "-csv"}, "cannot be combined"},
		{[]string{"figures", "-json", "-id", "fig1"}, "cannot be combined"},
		{[]string{"sweep", "-kind", "bogus"}, `unknown kind "bogus"`},
		{[]string{"sweep", "-workload", "swaptions"}, `unknown workload "swaptions"`},
		{[]string{"sweep", "-kind", "mix", "-workload", "ferret"}, ">= 2 workloads"},
		{[]string{"characterize", "-reuse", "swaptions"}, `unknown workload "swaptions"`},
		{[]string{"characterize", "-trace", kept, "-format", "xml"}, `unknown format "xml"`},
		{[]string{"characterize", "-trace", filepath.Join(dir, "missing.trc")}, "missing.trc"},
		{[]string{"trace"}, "missing -workload"},
		{[]string{"trace", "-workload", "swaptions"}, `unknown workload "swaptions"`},
		{[]string{"trace", "-workload", "ferret", "-filtered"}, "bad flags"},
		{[]string{"tracegen", "-workload", "ferret"}, `unknown subcommand "tracegen"`},
		{nil, "bad flags"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out, io.Discard)
		switch {
		case err == nil:
			t.Errorf("hybridsim %v: accepted", tc.args)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("hybridsim %v: error %q does not mention %q", tc.args, err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("hybridsim %v: rejected, but wrote %q", tc.args, out.String())
		}
	}
	if data, _ := os.ReadFile(kept); string(data) != "a trace that is already there" {
		t.Errorf("a rejected command line rewrote its output file: %q", data)
	}
}

func TestHelp(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"help"}, {"sweep", "-h"}} {
		var out, errw bytes.Buffer
		if err := run(args, &out, &errw); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("hybridsim %v: %v, want flag.ErrHelp", args, err)
		}
		if out.Len() > 0 || errw.Len() == 0 {
			t.Errorf("hybridsim %v: usage belongs on stderr (stdout %q, stderr %q)", args, out.String(), errw.String())
		}
	}
}

// TestWriteFileRemovesPartialOutput: a trace file that could not be written
// completely must not be left behind looking like a shorter trace.
func TestWriteFileRemovesPartialOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "partial.trc")
	boom := errors.New("disk full")
	_, err := writeFile(path, func(w io.Writer) (int, error) {
		io.WriteString(w, "half a trace")
		return 1, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeFile: %v, want the emit error", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("partial file left behind (stat: %v)", err)
	}
}

// TestTraceCustomSpecs drives `trace -specs`: a workload that exists only in
// a spec file, written and read back through characterize.
func TestTraceCustomSpecs(t *testing.T) {
	t.Chdir(t.TempDir())
	spec, _ := workload.ByName("ferret")
	spec.Name = "mine"
	f, err := os.Create("specs.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.SaveSpecs(f, []workload.Spec{spec}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	mine := hybridsim(t, "trace", "-specs", "specs.json", "-workload", "mine", "-scale", "0.005")
	ferret := hybridsim(t, "trace", "-workload", "ferret", "-scale", "0.005")
	if want := strings.ReplaceAll(ferret, "ferret", "mine"); mine != want {
		t.Errorf("trace -specs wrote %q, want %q", mine, want)
	}
	a, _ := os.ReadFile("mine.trc")
	b, _ := os.ReadFile("ferret.trc")
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Errorf("the renamed spec's trace (%d bytes) differs from ferret's (%d bytes)", len(a), len(b))
	}
	var out bytes.Buffer
	if err := run([]string{"trace", "-specs", "specs.json", "-workload", "ferret"}, &out, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "not in specs.json") {
		t.Errorf("a workload missing from the spec file: %v", err)
	}
}
