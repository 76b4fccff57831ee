// Command tierd benchmarks the online tiered-memory engine under
// concurrent closed-loop load: it replays Table III workload traces from
// many goroutines into internal/tiered (through internal/loadgen, the one
// load driver behind both the in-process and the RESP client modes) and
// reports throughput, service latency percentiles and migration activity.
//
//	go run ./cmd/tierd -workload bodytrack -goroutines 16 -duration 2s
//	go run ./cmd/tierd -workload ferret -policy clock-dwf -shards 1 -ops 500000 -json
//	go run ./cmd/tierd -tenants 'bodytrack:40,canneal:30,ferret:30' -duration 2s
//	go run ./cmd/tierd -numa nodes=2,remote-penalty=1.8 -duration 2s
//	go run ./cmd/tierd -serve 127.0.0.1:6380 -workload bodytrack       # RESP server
//	go run ./cmd/tierd -connect 127.0.0.1:6380 -connections 4 -pipeline 16 -duration 5s
//
// The engine approximates the reference simulator's LRU windows with scan
// epochs; how far its counts sit from internal/sim's on every Table III
// workload is measured and pinned by the fidelity test in internal/tiered.
//
// With -tenants, tierd serves N isolated tenants concurrently — the live
// form of the paper's consolidated `mix` study. Each list entry is
// workload:percent; the percent is the tenant's share of DRAM as its
// dedicated quota, and any share not covered (the list may total less
// than 100) becomes the spill pool all tenants may borrow from. Tenants
// get distinct trace seeds and their own goroutines, and the report (text
// or artifact) breaks out per-tenant throughput, latency percentiles and
// quota occupancy.
//
// With -numa, tierd emulates an N-socket machine: DRAM and NVM split into
// per-node pools (even shares), shard groups homed per node, one migration
// pipeline per node, and placement that prefers a page's home node —
// going remote only when the home pool is exhausted. The report adds a
// per-node breakdown (ops for pages homed there, DRAM/NVM occupancy,
// local-vs-remote faults/promotions/demotions) plus the local and remote
// migration break-even figures derived from the remote penalty, and the
// artifact gains one row per node.
//
// The in-process load modes snapshot runtime.MemStats around the measured
// load phase (the two stop-the-world reads sit outside the timed window)
// and report the process-wide allocation rate (allocs/op and B/op across
// every access served) and the GC activity the load induced (cycles and
// total stop-the-world pause). The serve hit path is allocation-free by
// design, so a non-trivial allocs/op here is a regression signal; the
// numbers ride along in the results/v1 artifact (allocs_per_op,
// alloc_bytes_per_op, gc_cycles, gc_pause_total_ns) so CI load runs expose
// allocation creep, not just latency creep.
//
// With -serve, tierd becomes a RESP (redis-protocol) server over the
// engine: remote clients generate the load instead of in-process
// goroutines, AUTH binds connections to tenants, and SIGINT/SIGTERM
// (both handled identically) triggers a graceful drain whose cleanliness
// is recorded in the artifact; a second SIGINT/SIGTERM while the drain is
// in progress forces an immediate exit with status 130, skipping the
// final checkpoint. With -connect, tierd is the benchmarking client: it
// replays the workload trace over -connections pipelined connections,
// closed-loop or open-loop at a target -rate, and reports batch
// round-trip percentiles plus the server's own counters fetched over
// STATS. See docs/protocol.md for the wire protocol.
//
// With -persist (serve mode), tierd checkpoints the NVM tier's residency
// and hotness into <dir> every -checkpoint-interval and once more during
// the drain: a full base snapshot (checkpoint.ckpt) every
// -checkpoint-full-every cuts and O(dirty) delta cuts (delta-*.ckpt)
// carrying only the changed pages in between. On restart tierd replays
// base + deltas before serving data: the RESP listener comes up
// immediately but answers data commands with -LOADING (and /readyz stays
// not-ready) until the restore finishes, after which the restored-hot
// pages are re-promoted as a rate-limited warm-up through the migration
// daemon — or, with -warmup-dram-topk, the hottest K are placed straight
// into DRAM before serving. The client-side recovery KPI for that
// warm-up is -kpi: the client samples the server's cumulative hit rate
// (accesses served from resident memory rather than faulted in, plus the
// DRAM-only variant) over STATS and reports the time it took to reach
// 90% of its steady-state value (kpi_t90_ms / kpi_dram_t90_ms in the
// artifact). See docs/persistence.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hybridmem/internal/loadgen"
	"hybridmem/internal/memspec"
	"hybridmem/internal/obs"
	"hybridmem/internal/results"
	"hybridmem/internal/tiered"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// errBadFlags is returned after the flag package has already printed the
// parse error and the usage text.
var errBadFlags = errors.New("bad flags")

func main() {
	log.SetFlags(0)
	log.SetPrefix("tierd: ")
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// run is tierd behind its process boundary: parse and validate args, then
// dispatch to the server, the RESP client or the in-process load run.
// Results go to stdout (or -out), progress and usage to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	o, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	switch {
	case o.serveAddr != "":
		ctx, stop := signalContext(stderr)
		defer stop()
		return serve(ctx, o, stdout, stderr)
	case o.connectAddr != "":
		return connect(o, stdout)
	}
	return load(o, stdout, stderr)
}

// signalContext is cancelled by the first SIGINT/SIGTERM, which starts the
// server's drain. A second one while the drain is in progress forces an
// immediate exit with status 130, skipping the final checkpoint — the
// escape hatch when a drain hangs.
func signalContext(stderr io.Writer) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	sig := make(chan os.Signal, 2) // both signals may land before the goroutine runs
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
		case <-ctx.Done():
			return
		}
		cancel()
		<-sig
		fmt.Fprintln(stderr, "tierd: second signal, forcing exit")
		os.Exit(130)
	}()
	return ctx, cancel
}

// options is the parsed command line.
type options struct {
	workload, tenants, policy string
	scale                     float64
	seed                      int64
	goroutines                int
	duration                  time.Duration
	ops                       int64
	batch, shards             int
	numa                      numaFlags
	jsonOut                   bool
	outPath                   string

	serveAddr, connectAddr string
	connections, pipeline  int
	openLoop               bool
	rate                   float64
	auth                   string
	maxConns               int
	idleTimeout            time.Duration
	requireAuth            bool
	persistDir             string
	ckptInterval           time.Duration
	ckptFullEvery          int
	warmupTopK             int
	kpi                    bool

	admin adminFlags
}

// parseFlags parses and validates the command line; every rejection is a
// returned error, so tests drive it in-process.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{}
	var numaSpec, clientMode string
	fs := flag.NewFlagSet("tierd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "bodytrack", "Table III workload to replay (single-tenant mode)")
	fs.StringVar(&o.tenants, "tenants", "", `multi-tenant mode: comma-separated workload:percent list, e.g. "bodytrack:40,canneal:30,ferret:30"; each percent is the tenant's DRAM quota share, the uncovered remainder is the shared spill pool`)
	fs.StringVar(&o.policy, "policy", string(tiered.Proposed), "migration policy (proposed, proposed-adaptive, clock-dwf)")
	fs.Float64Var(&o.scale, "scale", 0.05, "trace scale (1.0 = the paper's full trace sizes)")
	fs.Int64Var(&o.seed, "seed", 1, "trace generation seed (tenant i uses seed+i)")
	fs.IntVar(&o.goroutines, "goroutines", runtime.GOMAXPROCS(0), "closed-loop load goroutines (split across tenants in multi-tenant mode)")
	fs.DurationVar(&o.duration, "duration", 2*time.Second, "wall-clock budget (ignored when -ops is set)")
	fs.Int64Var(&o.ops, "ops", 0, "total access budget (0 = run for -duration)")
	fs.IntVar(&o.batch, "batch", 1, "serve accesses through the engine batch API in groups of this size (1 = one ServeTenant call per access) — the A/B lever for measuring batch amortization")
	fs.IntVar(&o.shards, "shards", 0, "page-table shards, rounded up to a power of two (0 = 4x GOMAXPROCS, 1 = single lock)")
	fs.StringVar(&numaSpec, "numa", "", `NUMA emulation: "nodes=N[,remote-penalty=X]" splits DRAM and NVM into N per-node pools (even split, shard groups homed per node) and reports per-node ops, occupancy and local-vs-remote migrations`)
	fs.BoolVar(&o.jsonOut, "json", false, "emit a hybridmem.results/v1 artifact instead of text")
	fs.StringVar(&o.outPath, "out", "", "write output to a file instead of stdout")

	fs.StringVar(&o.serveAddr, "serve", "", `RESP server mode: listen on this address (e.g. "127.0.0.1:6380") and serve remote clients until SIGINT/SIGTERM; sizing comes from -workload or -tenants`)
	fs.StringVar(&o.connectAddr, "connect", "", "benchmark client mode: replay the -workload trace over RESP against a running tierd -serve at this address")
	fs.IntVar(&o.connections, "connections", 4, "client mode: concurrent connections")
	fs.IntVar(&o.pipeline, "pipeline", 16, "client mode: pipelined commands per batch")
	fs.StringVar(&clientMode, "client-mode", "closed", `client mode pacing: "closed" (next batch when the previous is answered) or "open" (fixed schedule from -rate; lateness counts as latency)`)
	fs.Float64Var(&o.rate, "rate", 0, "client mode, open loop: target total ops/s across all connections")
	fs.StringVar(&o.auth, "auth", "", "client mode: AUTH token sent on each connection (a tenant name, e.g. \"default\")")
	fs.IntVar(&o.maxConns, "max-conns", 0, "serve mode: connection cap; accepting past it evicts the least-recently-active connection (0 = server default)")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 0, "serve mode: reap connections idle this long (0 = server default, negative disables)")
	fs.BoolVar(&o.requireAuth, "require-auth", false, "serve mode: reject data commands until a successful AUTH")
	fs.StringVar(&o.persistDir, "persist", "", "serve mode: checkpoint the NVM tier's residency into this directory and restore it on restart (data commands answer -LOADING until the restore finishes)")
	fs.DurationVar(&o.ckptInterval, "checkpoint-interval", time.Second, "serve mode with -persist: background checkpoint period")
	fs.IntVar(&o.ckptFullEvery, "checkpoint-full-every", 8, "serve mode with -persist: cut a full snapshot every Nth checkpoint and O(dirty) delta cuts in between (1 = every cut full)")
	fs.IntVar(&o.warmupTopK, "warmup-dram-topk", 0, "serve mode with -persist: restore up to this many of the hottest checkpoint-warm pages directly into DRAM before serving (0 = storm-only warm-up)")
	fs.BoolVar(&o.kpi, "kpi", false, "client mode: sample the server's hit rate over STATS and report time-to-90%-of-steady-state (the recovery KPI)")

	fs.StringVar(&o.admin.addr, "admin", "", `admin plane: HTTP listen address (e.g. "127.0.0.1:6060") exposing /metrics (Prometheus text), /healthz, /readyz, /events (migration trace ring) and /debug/pprof; works in -serve and the in-process load modes`)
	fs.BoolVar(&o.admin.profiles, "pprof-contention", false, "admin plane: enable mutex and block profiling (adds sampling overhead; off by default)")
	fs.IntVar(&o.admin.ringSize, "trace-ring", obs.DefaultRingSize, "admin plane: migration trace ring capacity in events (rounded up to a power of two); size it above the run's expected migration count to keep the whole trace")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errBadFlags
	}

	var err error
	if o.numa, err = parseNUMA(numaSpec); err != nil {
		return nil, err
	}
	o.openLoop = clientMode == "open"
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %v", fs.Args())
	case o.goroutines <= 0:
		err = fmt.Errorf("-goroutines must be positive, got %d", o.goroutines)
	case o.scale <= 0:
		err = fmt.Errorf("-scale must be positive, got %g", o.scale)
	case o.ops < 0:
		err = fmt.Errorf("-ops must be non-negative, got %d", o.ops)
	case o.batch < 1:
		err = fmt.Errorf("-batch must be at least 1, got %d", o.batch)
	case !tiered.ValidKind(tiered.Kind(o.policy)):
		err = fmt.Errorf("unknown -policy %q (have %v)", o.policy, tiered.Kinds())
	case o.admin.profiles && o.admin.addr == "":
		err = errors.New("-pprof-contention requires -admin (the profiles are served there)")
	case o.serveAddr != "" && o.connectAddr != "":
		err = errors.New("-serve and -connect are mutually exclusive (run them as two processes)")
	case clientMode != "open" && clientMode != "closed":
		err = fmt.Errorf("-client-mode %q unknown (have open, closed)", clientMode)
	case o.persistDir != "" && o.serveAddr == "":
		err = errors.New("-persist requires -serve (the server owns the checkpoint)")
	case o.ckptInterval <= 0:
		err = errors.New("-checkpoint-interval must be positive")
	case o.ckptFullEvery < 1:
		err = errors.New("-checkpoint-full-every must be at least 1")
	case o.warmupTopK < 0:
		err = errors.New("-warmup-dram-topk must be non-negative")
	case o.kpi && o.connectAddr == "":
		err = errors.New("-kpi requires -connect (the KPI is sampled client-side)")
	case o.connections < 1:
		err = fmt.Errorf("-connections must be positive, got %d", o.connections)
	case o.pipeline < 1:
		err = fmt.Errorf("-pipeline must be positive, got %d", o.pipeline)
	case o.openLoop && o.rate <= 0 && o.connectAddr != "":
		err = errors.New("-client-mode open needs -rate (target ops/s)")
	}
	if err != nil {
		return nil, err
	}
	return o, nil
}

// numaFlags is the parsed -numa emulation spec.
type numaFlags struct {
	nodes   int
	penalty float64
}

// parseNUMA parses "nodes=N[,remote-penalty=X]". Empty means a single
// uniform node (the paper's machine).
func parseNUMA(spec string) (numaFlags, error) {
	n := numaFlags{nodes: 1}
	if spec == "" {
		return n, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return n, fmt.Errorf("-numa entry %q is not key=value", part)
		}
		switch k {
		case "nodes":
			nodes, err := strconv.Atoi(v)
			if err != nil || nodes < 1 {
				return n, fmt.Errorf("-numa nodes=%q: need a positive integer", v)
			}
			n.nodes = nodes
		case "remote-penalty":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p < 1 {
				return n, fmt.Errorf("-numa remote-penalty=%q: need a factor >= 1", v)
			}
			n.penalty = p
		default:
			return n, fmt.Errorf("-numa key %q unknown (have nodes, remote-penalty)", k)
		}
	}
	return n, nil
}

// topology builds the engine topology for the parsed flags: an even
// per-node split of the zone capacities.
func (n numaFlags) topology(dram, nvm int) tiered.Topology {
	if n.nodes <= 1 && n.penalty == 0 {
		return tiered.Topology{} // the single-node default
	}
	t := tiered.EvenTopology(n.nodes, dram, nvm)
	t.RemotePenalty = n.penalty
	return t
}

// tenantRun is one tenant's setup and, after a load run, its outcome.
// -workload is a one-entry list with no quota (percent 0) served as the
// engine's default tenant.
type tenantRun struct {
	id         tiered.TenantID
	workload   string
	percent    int
	seed       int64
	goroutines int
	warm, roi  []trace.Record
	report     loadgen.Report
	stats      tiered.TenantStats
}

// parseTenants parses a "workload:percent,..." spec. Percents must be
// positive and total at most 100; the uncovered remainder becomes the
// shared spill pool.
func parseTenants(spec string) ([]*tenantRun, error) {
	var runs []*tenantRun
	sum := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		name, pctStr, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant entry %q is not workload:percent", part)
		}
		pct, err := strconv.Atoi(strings.TrimSuffix(pctStr, "%"))
		if err != nil {
			return nil, fmt.Errorf("tenant entry %q: bad percent: %v", part, err)
		}
		if pct <= 0 {
			return nil, fmt.Errorf("tenant entry %q: percent must be positive", part)
		}
		sum += pct
		runs = append(runs, &tenantRun{workload: name, percent: pct})
	}
	if sum > 100 {
		return nil, fmt.Errorf("tenant quota shares total %d%%, must be at most 100%%", sum)
	}
	return runs, nil
}

// generate sizes the tenant's workload footprint and, with traces,
// materializes its warmup and ROI traces.
func (r *tenantRun) generate(scale float64, traces bool) (pages int, err error) {
	spec, ok := workload.ByName(r.workload)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q (have %v)", r.workload, workload.Names())
	}
	gen, err := workload.NewGenerator(spec, scale, r.seed)
	if err != nil {
		return 0, err
	}
	if traces {
		if r.warm, err = trace.Materialize(gen.WarmupSource(r.seed+1), 0); err != nil {
			return 0, err
		}
		if r.roi, err = trace.Materialize(gen, 0); err != nil {
			return 0, err
		}
	}
	return gen.Pages(), nil
}

// sizeEngine resolves -workload / -tenants into the tenant list and the
// engine config sized for its combined footprint by the paper's rule —
// the one sizing every engine-hosting mode shares. Tenant i replays seed+i
// and gets its round-robin share of -goroutines, at least one.
func sizeEngine(o *options, traces bool) ([]*tenantRun, tiered.Config, error) {
	runs := []*tenantRun{{workload: o.workload}}
	if o.tenants != "" {
		var err error
		if runs, err = parseTenants(o.tenants); err != nil {
			return nil, tiered.Config{}, err
		}
	}
	totalPages := 0
	for i, r := range runs {
		r.id, r.seed = tiered.TenantID(i), o.seed+int64(i)
		r.goroutines = o.goroutines / len(runs)
		if i < o.goroutines%len(runs) {
			r.goroutines++
		}
		r.goroutines = max(r.goroutines, 1)
		pages, err := r.generate(o.scale, traces)
		if err != nil {
			return nil, tiered.Config{}, err
		}
		totalPages += pages
	}
	dram, nvm := memspec.DefaultSizing().Partition(totalPages)
	cfg := tiered.Config{
		Policy:    tiered.Kind(o.policy),
		DRAMPages: dram,
		NVMPages:  nvm,
		Shards:    o.shards,
		Topology:  o.numa.topology(dram, nvm),
	}
	if o.tenants != "" {
		for _, r := range runs {
			cfg.Tenants = append(cfg.Tenants, tiered.TenantConfig{
				ID:        r.id,
				Name:      fmt.Sprintf("%d:%s", r.id, r.workload),
				DRAMQuota: dram * r.percent / 100,
			})
		}
	}
	return runs, cfg, nil
}

// loadReport is the outcome of an in-process load run: everything the text
// and artifact renderings need, already reduced to the measured phase.
type loadReport struct {
	engine *tiered.Engine
	runs   []*tenantRun
	multi  bool
	agg    loadgen.Report
	stats  tiered.Stats
	nodes  []tiered.NodeStats
	// Process-wide allocation and GC deltas over the load window. The
	// serve hit path allocates nothing, so allocsPerOp on a healthy run is
	// a small fraction (daemon batches, fault-path entries).
	allocsPerOp, bytesPerOp float64
	gcCycles                uint32
	gcPause                 time.Duration
}

// load is the in-process run path for -workload and -tenants alike: build
// the engine, warm it, measure the load phase, report.
func load(o *options, stdout, stderr io.Writer) error {
	runs, cfg, err := sizeEngine(o, true)
	if err != nil {
		return err
	}
	ring := o.admin.ring()
	cfg.Events = ring
	engine, err := tiered.New(cfg)
	if err != nil {
		return err
	}
	if err := engine.Start(); err != nil {
		return err
	}
	defer engine.Stop() // idempotent: the error paths' stop
	adm, err := startAdmin(o, engine, nil, ring, nil, nil, stderr)
	if err != nil {
		return err
	}
	defer stopAdmin(adm, stderr)
	rep, err := measure(o, engine, runs)
	if err != nil {
		return err
	}
	return emit(o, stdout, rep.artifact(o), rep.text())
}

// measure warms each tenant serially so the measured phase starts from a
// populated table, snapshots the counters, drives the load, stops the
// engine and reduces every counter to the load phase.
func measure(o *options, e *tiered.Engine, runs []*tenantRun) (*loadReport, error) {
	for _, r := range runs {
		for _, rec := range r.warm {
			if _, err := e.ServeTenant(r.id, rec.Addr, rec.Op); err != nil {
				return nil, err
			}
		}
	}
	base, nodeBase := e.Stats(), e.NodeStats()
	loads := make([]loadgen.Load, len(runs))
	for i, r := range runs {
		r.stats, _ = e.TenantStats(r.id) // the base; reduced to the load phase below
		loads[i] = loadgen.Load{Recs: r.roi, Workers: r.goroutines, Open: loadgen.Engine(e, r.id)}
	}
	cfg := loadgen.Config{Ops: o.ops, Unit: o.batch}
	if o.ops <= 0 {
		cfg.Duration = o.duration
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := loadgen.Run(loads, cfg)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	if err := e.Stop(); err != nil {
		return nil, err
	}

	rep := &loadReport{
		engine:   e,
		runs:     runs,
		multi:    o.tenants != "",
		agg:      res.Aggregate,
		stats:    e.Stats().Sub(base),
		nodes:    e.NodeStats(),
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
	if ops := float64(rep.agg.Ops); ops > 0 {
		rep.allocsPerOp = float64(after.Mallocs-before.Mallocs) / ops
		rep.bytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / ops
	}
	for i := range rep.nodes {
		rep.nodes[i] = rep.nodes[i].Sub(nodeBase[i])
	}
	for i, r := range runs {
		cur, _ := e.TenantStats(r.id)
		r.stats = cur.Sub(r.stats)
		r.report = res.Loads[i]
	}
	return rep, nil
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// text renders the human report: the single-tenant or the aggregate
// header, the memory and per-node lines both share, then one block per
// tenant in multi-tenant mode.
func (rep *loadReport) text() string {
	e, st, agg, cfg := rep.engine, rep.stats, rep.agg, rep.engine.Config()
	var b strings.Builder
	if rep.multi {
		fmt.Fprintf(&b, `tierd: %d tenants under %s, DRAM %d + NVM %d frames (%d spill), %d shards
aggregate:  %12.0f ops/s (%d ops in %v), p50 %v, p99 %v
migration:  %d promotions, %d demotions, %d evictions; %d scans, %d batches, %d queue drops
`,
			len(rep.runs), e.PolicyName(), cfg.DRAMPages, cfg.NVMPages, e.SpillPool(), cfg.Shards,
			agg.OpsPerSec, agg.Ops, agg.Elapsed.Round(time.Millisecond), agg.P50, agg.P99,
			st.Promotions, st.Demotions, st.Evictions, st.Scans, st.Batches, st.QueueDrops)
	} else {
		fmt.Fprintf(&b, `tierd: %s under %s, DRAM %d + NVM %d frames, %d shards, %d goroutines
throughput: %12.0f ops/s (%d ops in %v)
latency:    p50 %v, p95 %v, p99 %v, max %v
placement:  %.1f%% DRAM hits, %.1f%% NVM hits, %d faults
migration:  %d promotions, %d demotions (%d fault, %d promo), %d evictions
daemon:     %d scans, %d batches, %d queue drops
`,
			rep.runs[0].workload, e.PolicyName(), cfg.DRAMPages, cfg.NVMPages, cfg.Shards, rep.runs[0].goroutines,
			agg.OpsPerSec, agg.Ops, agg.Elapsed.Round(time.Millisecond),
			agg.P50, agg.P95, agg.P99, agg.Max,
			pct(st.HitsDRAM(), st.Accesses), pct(st.HitsNVM(), st.Accesses), st.Faults,
			st.Promotions, st.Demotions, st.DemotionsFault, st.DemotionsPromo, st.Evictions,
			st.Scans, st.Batches, st.QueueDrops)
	}
	fmt.Fprintf(&b, "memory:     %.3f allocs/op, %.1f B/op, GC %d cycles, %v total pause\n",
		rep.allocsPerOp, rep.bytesPerOp, rep.gcCycles, rep.gcPause)
	// Per-node lines: nothing on a single node, where the aggregate lines
	// already tell the whole story.
	if e.NumNodes() > 1 {
		topo := e.Topology()
		fmt.Fprintf(&b, "numa:       %d nodes, remote penalty %.2fx, break-even %d local / %d remote hits\n",
			e.NumNodes(), topo.RemotePenalty, tiered.BreakEvenHits(cfg.Spec), topo.BreakEvenHitsRemote(cfg.Spec))
		for _, ns := range rep.nodes {
			fmt.Fprintf(&b, "node %d:     %d/%d DRAM, %d/%d NVM frames; %d ops; faults %d local / %d remote; promotions %d/%d; demotions %d/%d\n",
				ns.ID, ns.ResidentDRAM, ns.DRAMPages, ns.ResidentNVM, ns.NVMPages, ns.Accesses,
				ns.FaultsLocal, ns.FaultsRemote,
				ns.PromotionsLocal, ns.PromotionsRemote,
				ns.DemotionsLocal, ns.DemotionsRemote)
		}
	}
	if !rep.multi {
		return b.String()
	}
	for _, r := range rep.runs {
		cur, _ := e.TenantStats(r.id)
		fmt.Fprintf(&b, `tenant %-16s %2d%% quota (%d frames, cap %d), %d goroutines
  throughput: %12.0f ops/s, latency p50 %v p95 %v p99 %v
  placement:  %.1f%% DRAM hits, %d faults, %d promotions, %d demotions
  occupancy:  %d/%d DRAM frames (%.0f%% of cap)
`,
			cur.Name, r.percent, cur.DRAMQuota, cur.DRAMCap, r.goroutines,
			r.report.OpsPerSec, r.report.P50, r.report.P95, r.report.P99,
			pct(r.stats.HitsDRAM, r.stats.Accesses), r.stats.Faults, r.stats.Promotions, r.stats.Demotions,
			cur.ResidentDRAM, cur.DRAMCap, pct(cur.ResidentDRAM, cur.DRAMCap))
	}
	return b.String()
}

// latencyValues are the throughput and latency keys every load row carries.
func latencyValues(r loadgen.Report) map[string]float64 {
	return map[string]float64{
		"ops":         float64(r.Ops),
		"ops_per_sec": r.OpsPerSec,
		"p50_ns":      float64(r.P50.Nanoseconds()),
		"p95_ns":      float64(r.P95.Nanoseconds()),
		"p99_ns":      float64(r.P99.Nanoseconds()),
		"max_ns":      float64(r.Max.Nanoseconds()),
	}
}

// artifact renders the results/v1 form: the run's row (kind "serve" for
// -workload, "serve-multitenant" for -tenants), one row per node on a
// multi-node topology, one row per tenant in multi-tenant mode.
func (rep *loadReport) artifact(o *options) *results.Artifact {
	e, st, cfg := rep.engine, rep.stats, rep.engine.Config()
	row := results.Result{
		ID:        fmt.Sprintf("%s/%s/g%d", rep.runs[0].workload, e.PolicyName(), rep.runs[0].goroutines),
		Workload:  rep.runs[0].workload,
		Policy:    e.PolicyName(),
		Seed:      o.seed,
		DRAMPages: cfg.DRAMPages,
		NVMPages:  cfg.NVMPages,
		Params: map[string]float64{
			"goroutines": float64(rep.runs[0].goroutines),
			"shards":     float64(cfg.Shards),
			"nodes":      float64(e.NumNodes()),
		},
		Values: latencyValues(rep.agg),
	}
	kind := "serve"
	if rep.multi {
		kind = "serve-multitenant"
		row.ID = fmt.Sprintf("aggregate/%s/t%d", e.PolicyName(), len(rep.runs))
		row.Workload = "mix"
		row.Params = map[string]float64{
			"tenants": float64(len(rep.runs)),
			"shards":  float64(cfg.Shards),
			"nodes":   float64(e.NumNodes()),
			"spill":   float64(e.SpillPool()),
		}
	}
	maps.Copy(row.Values, map[string]float64{
		"hits_dram":             float64(st.HitsDRAM()),
		"hits_nvm":              float64(st.HitsNVM()),
		"faults":                float64(st.Faults),
		"promotions":            float64(st.Promotions),
		"demotions":             float64(st.Demotions),
		"evictions":             float64(st.Evictions),
		"scans":                 float64(st.Scans),
		"batches":               float64(st.Batches),
		"queue_drops":           float64(st.QueueDrops),
		"remote_faults":         float64(st.RemoteFaults),
		"remote_promotions":     float64(st.RemotePromotions),
		"remote_demotions":      float64(st.RemoteDemotions),
		"break_even_hit":        float64(tiered.BreakEvenHits(cfg.Spec)),
		"break_even_hit_remote": float64(cfg.Topology.BreakEvenHitsRemote(cfg.Spec)),
		"allocs_per_op":         rep.allocsPerOp,
		"alloc_bytes_per_op":    rep.bytesPerOp,
		"gc_cycles":             float64(rep.gcCycles),
		"gc_pause_total_ns":     float64(rep.gcPause.Nanoseconds()),
	})
	a := results.NewArtifact("tierd", kind, o.scale, o.seed)
	a.Add(row)
	if e.NumNodes() > 1 {
		for _, ns := range rep.nodes {
			a.Add(results.Result{
				ID:        fmt.Sprintf("node%d/%s", ns.ID, e.PolicyName()),
				Workload:  "node",
				Policy:    e.PolicyName(),
				Seed:      o.seed,
				DRAMPages: int(ns.DRAMPages),
				NVMPages:  int(ns.NVMPages),
				Params: map[string]float64{
					"node":           float64(ns.ID),
					"nodes":          float64(e.NumNodes()),
					"remote_penalty": cfg.Topology.RemotePenalty,
				},
				Values: map[string]float64{
					"ops":               float64(ns.Accesses),
					"resident_dram":     float64(ns.ResidentDRAM),
					"resident_nvm":      float64(ns.ResidentNVM),
					"faults_local":      float64(ns.FaultsLocal),
					"faults_remote":     float64(ns.FaultsRemote),
					"promotions_local":  float64(ns.PromotionsLocal),
					"promotions_remote": float64(ns.PromotionsRemote),
					"demotions_local":   float64(ns.DemotionsLocal),
					"demotions_remote":  float64(ns.DemotionsRemote),
				},
			})
		}
	}
	if !rep.multi {
		return a
	}
	for _, r := range rep.runs {
		cur, _ := e.TenantStats(r.id)
		trow := results.Result{
			ID:        fmt.Sprintf("t%d-%s/%s/g%d", r.id, r.workload, e.PolicyName(), r.goroutines),
			Workload:  r.workload,
			Policy:    e.PolicyName(),
			Seed:      r.seed,
			DRAMPages: int(cur.DRAMQuota),
			NVMPages:  cfg.NVMPages,
			Params: map[string]float64{
				"tenant":     float64(r.id),
				"quota_pct":  float64(r.percent),
				"dram_cap":   float64(cur.DRAMCap),
				"goroutines": float64(r.goroutines),
			},
			Values: latencyValues(r.report),
		}
		maps.Copy(trow.Values, map[string]float64{
			"hits_dram":       float64(r.stats.HitsDRAM),
			"hits_nvm":        float64(r.stats.HitsNVM),
			"faults":          float64(r.stats.Faults),
			"promotions":      float64(r.stats.Promotions),
			"demotions":       float64(r.stats.Demotions),
			"evictions":       float64(r.stats.Evictions),
			"resident_dram":   float64(cur.ResidentDRAM),
			"quota_occupancy": pct(cur.ResidentDRAM, cur.DRAMCap) / 100,
		})
		a.Add(trow)
	}
	return a
}

// emit writes a run's outcome — the artifact with -json, the text
// otherwise — to stdout or the -out file. The file is only created here,
// after the run has succeeded, so a failed run never truncates a previous
// artifact.
func emit(o *options, stdout io.Writer, a *results.Artifact, text string) error {
	out := []byte(text)
	if o.jsonOut {
		var err error
		if out, err = a.Encode(); err != nil {
			return err
		}
	}
	if o.outPath == "" {
		_, err := stdout.Write(out)
		return err
	}
	return os.WriteFile(o.outPath, out, 0o666)
}
