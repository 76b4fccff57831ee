// Command bench is the repository's benchmark: seven workloads, from the
// paper's offline evaluation to RESP over loopback, each measured from
// outside by timing calls into public functions and reading public
// counters. BENCHMARK.json names the workloads and metrics; README.md says
// why each is there and how the layer metrics map to the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workloads maps each BENCHMARK.json workload to its implementation.
var workloads = map[string]func(*runCtx) (*outcome, error){
	"paper_eval":     runPaperEval,
	"engine_stepped": runEngineStepped,
	"engine_hot":     func(rc *runCtx) (*outcome, error) { return runEngineLoop(rc, engineHot) },
	"engine_churn":   func(rc *runCtx) (*outcome, error) { return runEngineLoop(rc, engineChurn) },
	"wire_pipe64":    func(rc *runCtx) (*outcome, error) { return runWire(rc, 64) },
	"wire_pipe1":     func(rc *runCtx) (*outcome, error) { return runWire(rc, 1) },
	"persist_cycle":  runPersistCycle,
}

// smokeSeconds is the timed phase of a -smoke run: long enough for every
// check to see traffic, short enough for go test.
const smokeSeconds = 0.25

// metricValue is one metric as the result line and files carry it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, as written to the result file.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Params    map[string]any         `json:"params"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]summary     `json:"samples,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// fingerprint identifies the machine a result file was measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	Threads    int    `json:"load_threads"`
	GODEBUG    string `json:"godebug"`
}

type resultFile struct {
	Machine fingerprint `json:"machine"`
	Seed    int64       `json:"seed"`
	Results []result    `json:"results"`
}

func machine() fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Threads: loadThreads, GODEBUG: os.Getenv("GODEBUG"),
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		fp.Kernel = string(b)
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	runs     int
	smoke    bool
	dir      string
	out      string
}

func main() {
	var opt options
	var compare bool
	flag.StringVar(&opt.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of every generated input; run i of -runs uses seed+i")
	flag.Float64Var(&opt.seconds, "seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	flag.StringVar(&opt.trace, "trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	flag.IntVar(&opt.runs, "runs", 1, "runs per workload; more than one prints median and quartiles")
	flag.BoolVar(&opt.smoke, "smoke", false, "a quarter-second timed phase: output checks only, timings meaningless")
	flag.StringVar(&opt.dir, "dir", "", "existing directory in which persist_cycle makes, and removes, a directory of its own for checkpoint files (default: beside the result file)")
	flag.StringVar(&opt.out, "out", "", "result file; span files go beside it (default: bench/out/result-seed<seed>.json)")
	flag.BoolVar(&compare, "compare", false, "compare two result files given as arguments: -compare a.json b.json")
	flag.Parse()

	cat, err := loadCatalog()
	if err != nil {
		fatal(err)
	}
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compareFiles(os.Stdout, cat, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	ok, err := runAll(os.Stdout, cat, opt)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runAll runs the selected workloads and modes, prints every metric by name
// with its unit, writes the result file, and reports whether every check
// passed. The last line printed for each run is the driver's result object.
func runAll(w io.Writer, cat *catalog, opt options) (bool, error) {
	if !opt.smoke && runtime.NumCPU() < loadThreads {
		return false, fmt.Errorf("%d load threads on %d CPUs: the load would measure its own queueing", loadThreads, runtime.NumCPU())
	}
	var names []string
	for _, w := range cat.Workloads {
		if opt.workload == "all" || opt.workload == w.Name {
			if workloads[w.Name] == nil {
				return false, fmt.Errorf("workload %q of BENCHMARK.json has no implementation", w.Name)
			}
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("unknown workload %q", opt.workload)
	}
	var modes []bool
	switch opt.trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return false, fmt.Errorf("-trace %q: want 0, 1 or both", opt.trace)
	}
	if opt.seconds == 0 {
		opt.seconds = float64(cat.RunSeconds)
	}
	if opt.smoke {
		opt.seconds = smokeSeconds
	}
	if opt.seconds <= 0 {
		return false, fmt.Errorf("-seconds %v", opt.seconds)
	}
	if opt.out == "" {
		opt.out = filepath.Join(cat.root, "bench", "out", fmt.Sprintf("result-seed%d.json", opt.seed))
	}
	outDir := filepath.Dir(opt.out)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	if opt.dir == "" {
		opt.dir = outDir
	}

	file := resultFile{Machine: machine(), Seed: opt.seed}
	clock := clockNS()
	allOK := true
	for run := 0; run < opt.runs; run++ {
		for _, name := range names {
			for _, traced := range modes {
				res, err := runOne(cat, opt, name, opt.seed+int64(run), traced, clock)
				if err != nil {
					return false, fmt.Errorf("%s: %w", name, err)
				}
				file.Results = append(file.Results, *res)
				printResult(w, cat, res)
				allOK = allOK && res.Failed == 0
			}
		}
	}
	if opt.runs > 1 {
		printSpread(w, cat, file.Results)
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(opt.out, append(raw, '\n'), 0o644); err != nil {
		return false, err
	}
	return allOK, nil
}

// runOne runs one workload once, in one mode, and resolves what it measured
// against the catalog: an unknown name is an error, and a per-layer metric
// the workload's layers did no work for reads 0.
func runOne(cat *catalog, opt options, name string, seed int64, traced bool, clock float64) (*result, error) {
	rc := &runCtx{
		seed: seed, seconds: opt.seconds, trace: traced, smoke: opt.smoke,
		dir: opt.dir, epoch: time.Now(),
	}
	o, err := workloads[name](rc)
	if err != nil {
		return nil, err
	}
	o.set("bench.clock_ns", clock)
	if traced {
		var spans, overflow int64
		for _, t := range rc.tracers {
			spans += int64(len(t.spans))
			overflow += t.overflow
		}
		o.set("bench.spans", float64(spans))
		o.set("bench.span_overflow", float64(overflow))
	}
	res := &result{
		Workload: name, Trace: traced, Seed: seed, Seconds: opt.seconds, Params: o.params,
		Attempted: o.attempted, Failed: o.failed, Failures: o.failures,
		Metrics: map[string]metricValue{}, Samples: o.samples,
	}
	for m, v := range o.metrics {
		d, _, ok := cat.def(m)
		if !ok {
			return nil, fmt.Errorf("metric %q is not in BENCHMARK.json", m)
		}
		res.Metrics[m] = metricValue{v, d.Unit}
	}
	if traced {
		for _, d := range cat.PerLayer {
			if _, ok := res.Metrics[d.Name]; !ok {
				res.Metrics[d.Name] = metricValue{0, d.Unit}
			}
		}
		res.TraceFile = filepath.Join(filepath.Dir(opt.out), "trace-"+name+".json")
		if err := writeTrace(res.TraceFile, name, seed, rc.tracers); err != nil {
			return nil, err
		}
	} else {
		for _, d := range cat.EndToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Value == 0 {
				return nil, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
			}
		}
	}
	return res, nil
}

// printResult prints every metric of one run by name with its unit, then
// the result object the driver reads: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func printResult(w io.Writer, cat *catalog, res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n%s seed=%d seconds=%g %s  attempted=%d failed=%d failed_ratio=%g\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed,
		float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for m := range res.Metrics {
		names = append(names, m)
	}
	sort.Strings(names)
	line := map[string]metricValue{}
	for _, m := range names {
		v := res.Metrics[m]
		_, endToEnd, _ := cat.def(m)
		if endToEnd != res.Trace {
			line[m] = v
		}
		if v.Value == 0 && !endToEnd {
			continue // a layer this workload does not reach
		}
		kind := "layer"
		if endToEnd {
			kind = "end-to-end"
		}
		n := ""
		if c, ok := res.Samples[m]; ok {
			n = fmt.Sprintf("  n=%d", c.N)
			if c.TailQ > 0 {
				n += fmt.Sprintf(" p%g=%.6g", 100*c.TailQ, c.Tail)
			}
		}
		fmt.Fprintf(w, "  %-10s %-44s %16.6g %s%s\n", kind, m, v.Value, v.Unit, n)
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", res.TraceFile)
	}
	raw, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Failed == 0, max(res.Attempted, 1), res.Failed, line})
	fmt.Fprintf(w, "%s\n", raw)
}

// printSpread prints, for each workload, the median and quartiles of every
// end-to-end metric over the untraced runs.
func printSpread(w io.Writer, cat *catalog, results []result) {
	fmt.Fprintf(w, "\n%-16s %-12s %14s %14s %14s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, wl := range cat.Workloads {
		for _, d := range cat.EndToEnd {
			xs := values(results, wl.Name, d.Name)
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-16s %-12s %14.6g %14.6g %14.6g %7.2f%% %5.0f%%\n",
				wl.Name, d.Name, q1, q2, q3, 100*spread(xs), 100*d.Bound)
		}
	}
}

// values collects one end-to-end metric over a workload's untraced runs.
func values(results []result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range results {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, v.Value)
		}
	}
	return xs
}
