package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"hybridmem/internal/results"
)

var update = flag.Bool("update", false, "rewrite testdata/shapes.golden from this run")

// runArtifact drives run in-process with -json and decodes what it wrote.
func runArtifact(t *testing.T, args ...string) *results.Artifact {
	t.Helper()
	var out, errw bytes.Buffer
	if err := run(append(args, "-json"), &out, &errw); err != nil {
		t.Fatalf("tierd %v: %v\n%s", args, err, errw.String())
	}
	a, err := results.ReadArtifact(&out)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// banner is serve's stderr: it hands over the bound address once the
// "serving ... on ADDR" line has been written.
type banner struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string
	sent bool
}

var servingRE = regexp.MustCompile(`serving .* on (\S+) \(policy`)

func (b *banner) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Write(p)
	if m := servingRE.FindSubmatch(b.buf.Bytes()); m != nil && !b.sent {
		b.sent = true
		b.addr <- string(m[1])
	}
	return len(p), nil
}

// startServe runs serve in-process on an ephemeral port and returns its
// address and a drain function: cancel the context (the signal's stand-in),
// wait for serve to return cleanly, decode its artifact.
func startServe(t *testing.T, args ...string) (addr string, drain func() *results.Artifact) {
	t.Helper()
	o, err := parseFlags(append(args, "-serve", "127.0.0.1:0", "-json"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var out bytes.Buffer
	b := &banner{addr: make(chan string, 1)}
	done := make(chan error, 1)
	go func() { done <- serve(ctx, o, &out, b) }()
	select {
	case addr = <-b.addr:
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
	}
	return addr, func() *results.Artifact {
		t.Helper()
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("serve: %v", err)
		}
		a, err := results.ReadArtifact(&out)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
}

// shape is what downstream tooling keys on: the artifact's kind, its row
// ids and each row's sorted param and value names — no numbers.
func shape(name string, a *results.Artifact) string {
	keys := func(m map[string]float64) string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		slices.Sort(ks)
		return strings.Join(ks, " ")
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s/%s\n", name, a.Tool, a.Kind)
	for _, r := range a.Results {
		fmt.Fprintf(&sb, "%s\n  params: %s\n  values: %s\n", r.ID, keys(r.Params), keys(r.Values))
	}
	return sb.String()
}

// TestArtifactShapes pins every mode's artifact schema against
// testdata/shapes.golden, which was generated from the parent commit's
// binary before runSingleTenant/runMultiTenant/driveConn were folded into
// one run path — so a key or row the merge dropped or renamed fails here.
func TestArtifactShapes(t *testing.T) {
	var got strings.Builder
	got.WriteString(shape("workload", runArtifact(t,
		"-workload", "bodytrack", "-scale", "0.02", "-goroutines", "2", "-ops", "20000")))
	got.WriteString(shape("tenants", runArtifact(t,
		"-tenants", "bodytrack:40,canneal:30", "-scale", "0.01", "-goroutines", "2", "-ops", "20000")))
	got.WriteString(shape("numa", runArtifact(t,
		"-workload", "bodytrack", "-scale", "0.02", "-goroutines", "2", "-ops", "20000",
		"-numa", "nodes=2,remote-penalty=1.8")))

	client := []string{"-workload", "bodytrack", "-scale", "0.02",
		"-connections", "2", "-pipeline", "8", "-ops", "20000", "-duration", "30s"}
	addr, drain := startServe(t, "-workload", "bodytrack", "-scale", "0.02")
	connect := runArtifact(t, append(client, "-connect", addr)...)
	got.WriteString(shape("serve", drain()))
	got.WriteString(shape("connect", connect))

	addr, drain = startServe(t, "-workload", "bodytrack", "-scale", "0.02",
		"-persist", t.TempDir(), "-checkpoint-interval", "50ms")
	connect = runArtifact(t, append(client, "-connect", addr, "-kpi")...)
	got.WriteString(shape("serve-persist", drain()))
	got.WriteString(shape("connect-kpi", connect))

	const golden = "testdata/shapes.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("artifact shapes drifted from %s (-update regenerates):\n%s", golden, got.String())
	}
}

// TestNUMASmoke: two emulated nodes give one artifact row per node and
// nonzero local AND remote migrations (home-node preference with remote
// fallback), so a regression that stops cross-node fallback or drops the
// per-node rows fails.
func TestNUMASmoke(t *testing.T) {
	a := runArtifact(t, "-workload", "bodytrack", "-scale", "0.02", "-goroutines", "4",
		"-ops", "200000", "-numa", "nodes=2,remote-penalty=1.8")
	nodes := 0
	for _, r := range a.Results {
		if strings.HasPrefix(r.ID, "node") {
			nodes++
		}
	}
	if nodes != 2 {
		t.Errorf("%d per-node rows, want 2", nodes)
	}
	v := a.Results[0].Values
	remote := v["remote_promotions"] + v["remote_demotions"]
	local := v["promotions"] + v["demotions"] - remote
	if local <= 0 || remote <= 0 {
		t.Errorf("migrations local=%v remote=%v, both must be nonzero", local, remote)
	}
}

// TestNetSmoke: pipelined load over loopback RESP reaches the engine (the
// server_* fields the client fetches over STATS), is grouped into engine
// batches, is counted command for command by the server, and a cancelled
// context drains cleanly.
func TestNetSmoke(t *testing.T) {
	addr, drain := startServe(t, "-workload", "bodytrack", "-scale", "0.05")
	c := runArtifact(t, "-connect", addr, "-workload", "bodytrack", "-scale", "0.05",
		"-connections", "2", "-pipeline", "16", "-ops", "50001", "-duration", "30s").Results[0].Values
	s := drain().Results[0].Values
	if c["ops"] != 50001 {
		t.Errorf("client completed %v ops, want exactly 50001", c["ops"])
	}
	if hits := c["server_hits_dram"] + c["server_hits_nvm"]; hits <= 0 {
		t.Error("no engine hits observed over the wire")
	}
	if c["server_batched_ops"] <= 0 {
		t.Error("server reported no batched dispatches")
	}
	if s["commands"] < c["ops"] {
		t.Errorf("server saw %v commands, fewer than the %v ops the client sent", s["commands"], c["ops"])
	}
	if s["clean_drain"] != 1 || s["invariants_clean"] != 1 {
		t.Errorf("drain clean=%v invariants clean=%v, want both 1", s["clean_drain"], s["invariants_clean"])
	}
}

// TestFlagValidation: a bad command line comes back from run as an error
// naming the flag, before anything is built or listened on.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-serve", "127.0.0.1:0", "-connect", "127.0.0.1:1"}, "mutually exclusive"},
		{[]string{"-kpi"}, "-kpi requires -connect"},
		{[]string{"-persist", "x"}, "-persist requires -serve"},
		{[]string{"-numa", "nodes=0"}, "-numa nodes"},
		{[]string{"-numa", "sockets=2"}, "-numa key"},
		{[]string{"-tenants", "bodytrack:60,canneal:50"}, "total 110%"},
		{[]string{"-tenants", "bodytrack"}, "not workload:percent"},
		{[]string{"-workload", "nope"}, "unknown workload"},
		{[]string{"-policy", "nope"}, "unknown -policy"},
		{[]string{"-batch", "0"}, "-batch"},
		{[]string{"-connect", "127.0.0.1:1", "-client-mode", "open"}, "needs -rate"},
		{[]string{"-pprof-contention"}, "requires -admin"},
		{[]string{"stray"}, "unexpected arguments"},
		{[]string{"-memstats"}, "bad flags"},
	} {
		var out, errw bytes.Buffer
		err := run(tc.args, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("tierd %v: error %v, want one containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("tierd %v wrote output despite failing: %s", tc.args, out.String())
		}
	}
}
