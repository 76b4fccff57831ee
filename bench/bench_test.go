package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestStreamIsDecidedBySeed(t *testing.T) {
	gen := func(seed int64) uint64 {
		return newStream(permutation(1000, seed), 4096, 0.3, seed, 0).hash()
	}
	if a, b := gen(7), gen(7); a != b {
		t.Errorf("seed 7 gave stream hashes %x and %x", a, b)
	}
	if a, b := gen(7), gen(8); a == b {
		t.Errorf("seeds 7 and 8 gave the same stream hash %x", a)
	}
	perm := permutation(1000, 7)
	if a, b := newStream(perm, 4096, 0.3, 7, 0).hash(), newStream(perm, 4096, 0.3, 7, 1).hash(); a == b {
		t.Errorf("load threads 0 and 1 got the same stream %x", a)
	}
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	ramp := func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[n-1-i] = int64(i + 1) // descending: summarize must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n           int
		p50         float64
		tailQ, tail float64
	}{
		{99, 50, 0, 0},         // 9.9 samples beyond p90: no tail reported
		{100, 50, 0.9, 90},     // exactly ten beyond p90
		{1000, 500, 0.99, 990}, // ten beyond p99, one beyond p99.9
		{100000, 50000, 0.9999, 99990},
	} {
		s := summarize(ramp(tc.n))
		if s.N != tc.n || s.P50 != tc.p50 || s.TailQ != tc.tailQ || s.Tail != tc.tail {
			t.Errorf("n=%d: got %+v, want p50 %g and p%g = %g", tc.n, s, tc.p50, 100*tc.tailQ, tc.tail)
		}
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty sample: %+v", s)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("two values: %g %g %g", q1, q2, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); got != 1 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5", got)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{"parent", 0, 100, -1, 1},
		{"a", 10, 30, 0, 1},
		{"b", 20, 50, 0, 1},  // overlaps a: 10..50 is covered once
		{"c", 60, 120, 0, 1}, // runs past the parent: only 60..100 counts
		{"leaf", 25, 28, 2, 1},
		{"other", 0, 7, -1, 2},
	}
	want := []int64{20, 20, 27, 60, 3, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	if tot := totalsByName(spans)["parent"]; tot.Count != 1 || tot.TotalNS != 100 || tot.SelfNS != 20 {
		t.Errorf("totals of parent = %+v", tot)
	}
}

func TestTracerCountsOverflow(t *testing.T) {
	tr := newTracer(time.Now(), 2)
	for i := 0; i < 5; i++ {
		tr.add("x", 0, 1, -1, int64(i))
	}
	if len(tr.spans) != 2 || tr.overflow != 3 {
		t.Errorf("%d spans, %d overflow", len(tr.spans), tr.overflow)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{100, 101, 99}, []float64{105, 104, 106}, "ok"},
		{lower, []float64{100, 101, 99}, []float64{115, 114, 116}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{85, 86, 84}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok"},
		{lower, []float64{100, 150, 60}, []float64{105, 160, 70}, "unresolved"},
		{lower, []float64{100, 150, 90}, []float64{50, 80, 40}, "ok"}, // wide, but every run better
		{lower, []float64{100}, []float64{111}, "regressed"},
	} {
		if got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// The forms the driver requires of names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestCatalogMeetsTheContract(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range cat.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(workloads) != len(cat.Workloads) {
		t.Errorf("%d workloads implemented, %d in BENCHMARK.json", len(workloads), len(cat.Workloads))
	}
	setup := false
	for _, m := range cat.EndToEnd {
		name(m.Name)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in s, lower is better")
	}
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range cat.PerLayer {
		name(m.Name)
	}
	if len(cat.Paths) != 1 || cat.Paths[0] != "bench" {
		t.Errorf("paths %v", cat.Paths)
	}
	if cat.RunSeconds < 1 || cat.RunSeconds > 60 {
		t.Errorf("run_seconds %d", cat.RunSeconds)
	}
}

func smokeOptions(t *testing.T) options {
	dir := t.TempDir()
	return options{
		workload: "all", seed: 1, trace: "both", runs: 1, smoke: true,
		dir: dir, out: filepath.Join(dir, "result.json"),
	}
}

// TestSmoke runs every workload, untraced and traced, at a sixteenth of its
// size for a quarter second: the program builds against the repository's
// packages, every output check passes, every emitted metric is in
// BENCHMARK.json and every end-to-end metric is measured. No timing is
// asserted. The run leaves the directory given with -dir as it found it.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	opt := smokeOptions(t)
	bystander := filepath.Join(opt.dir, "not-the-benchmarks.txt")
	if err := os.WriteFile(bystander, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	ok, err := runAll(&out, cat, opt)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !ok {
		t.Errorf("a check failed:\n%s", out.String())
	}
	if raw, err := os.ReadFile(bystander); err != nil || string(raw) != "keep" {
		t.Errorf("a file that was in -dir before the run: %q, %v", raw, err)
	}
	if left, _ := filepath.Glob(filepath.Join(opt.dir, "persist-cycle-*")); len(left) != 0 {
		t.Errorf("checkpoint directories left behind: %v", left)
	}
	file, err := readResults(opt.out)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(cat.Workloads); len(file.Results) != want {
		t.Fatalf("%d results, want %d", len(file.Results), want)
	}
	if file.Machine.NProc == 0 || file.Machine.GoVersion == "" || file.Machine.Kernel == "" {
		t.Errorf("machine fingerprint %+v", file.Machine)
	}
	for _, r := range file.Results {
		if r.Attempted < 1 || r.Failed != 0 || len(r.Params) == 0 {
			t.Errorf("%s: attempted %d, failed %d, %d params", r.Workload, r.Attempted, r.Failed, len(r.Params))
		}
		for m := range r.Metrics {
			if _, _, ok := cat.def(m); !ok {
				t.Errorf("%s: metric %q is not in BENCHMARK.json", r.Workload, m)
			}
		}
		if !r.Trace {
			continue
		}
		for _, d := range cat.PerLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				t.Errorf("%s traced: per-layer metric %q missing", r.Workload, d.Name)
			}
		}
		if _, ok := r.Metrics["bench.trace_overhead"]; !ok {
			t.Errorf("%s traced: no bench.trace_overhead", r.Workload)
		}
		raw, err := os.ReadFile(r.TraceFile)
		if err != nil {
			t.Errorf("%s: %v", r.Workload, err)
			continue
		}
		var tf struct {
			Spans []struct {
				Name    string `json:"name"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
				Parent  int    `json:"parent"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 {
			t.Errorf("%s: span file has %d spans, %v", r.Workload, len(tf.Spans), err)
		}
		for i, s := range tf.Spans {
			if s.Name == "" || s.EndNS < s.StartNS || s.Parent >= len(tf.Spans) || s.Parent < -1 {
				t.Errorf("%s: span %d is %+v", r.Workload, i, s)
				break
			}
		}
	}

	// Each run ends in the driver's result object: exactly the end-to-end
	// metrics after an untraced run, the per-layer ones after a traced run.
	var lines []string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(l, `{"correct":`) {
			lines = append(lines, l)
		}
	}
	if len(lines) != len(file.Results) || !strings.HasSuffix(strings.TrimSpace(out.String()), lines[len(lines)-1]) {
		t.Fatalf("%d result lines for %d runs, or the last line is not one", len(lines), len(file.Results))
	}
	for i, l := range lines {
		var obj struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(l), &obj); err != nil {
			t.Fatalf("result line %q: %v", l, err)
		}
		want := cat.EndToEnd
		if file.Results[i].Trace {
			want = cat.PerLayer
		}
		if !obj.Correct || obj.Attempted < 1 || obj.Failed != 0 || len(obj.Metrics) != len(want) {
			t.Errorf("%s: result line has correct %v, attempted %d, failed %d, %d metrics (want %d)",
				file.Results[i].Workload, obj.Correct, obj.Attempted, obj.Failed, len(obj.Metrics), len(want))
		}
		for _, d := range want {
			if v, ok := obj.Metrics[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: result line lacks %s in %s", file.Results[i].Workload, d.Name, d.Unit)
			}
		}
	}

	// Comparing a result file with itself regresses nowhere.
	var cmp bytes.Buffer
	regressed, err := compareFiles(&cmp, cat, opt.out, opt.out)
	if err != nil || regressed {
		t.Errorf("self-comparison: regressed %v, %v\n%s", regressed, err, cmp.String())
	}
	if rows := strings.Count(cmp.String(), "\n") - 1; rows != len(cat.Workloads)*len(cat.EndToEnd) {
		t.Errorf("comparison has %d rows, want one per workload and end-to-end metric", rows)
	}
}
