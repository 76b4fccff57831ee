package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"hybridmem/internal/loadgen"
	"hybridmem/internal/persist"
	"hybridmem/internal/results"
	"hybridmem/internal/server"
	"hybridmem/internal/tiered"
)

// persistReport is the serve run's recovery story: what the restore found
// at startup and what the checkpointer left behind at shutdown.
type persistReport struct {
	enabled   bool
	coldStart bool
	restore   tiered.RestoreStats
	restoreMS float64
	// Chain shape of the restored checkpoint: base records plus the
	// delta cuts (and their records) replayed on top.
	baseRecords  int
	chainDeltas  int
	chainRecords int
	ckpt         persist.Stats
	finalOK      bool
}

// serve is tierd's server mode: build the engine (sized for the
// configured workloads, exactly as the in-process load modes size it),
// expose it over RESP, and serve until ctx is cancelled. The shutdown
// path is the graceful drain: stop accepting, let in-flight pipelines
// finish and flush, then stop the migration daemon — and the report
// records whether the drain completed within its grace window.
func serve(ctx context.Context, o *options, stdout, stderr io.Writer) error {
	_, cfg, err := sizeEngine(o, false)
	if err != nil {
		return err
	}
	ring := o.admin.ring()
	cfg.Events = ring
	if o.persistDir != "" {
		cfg.WarmupDRAMTopK = o.warmupTopK
	}
	engine, err := tiered.New(cfg)
	if err != nil {
		return err
	}

	// With -persist the engine is NOT started yet: the restore must land
	// in a fresh engine, so the RESP listener comes up first and answers
	// data commands with -LOADING until the restore completes.
	var (
		ckpt    *persist.Checkpointer
		loading atomic.Bool
		rec     persistReport
	)
	srvCfg := server.Config{
		Addr:        o.serveAddr,
		MaxConns:    o.maxConns,
		IdleTimeout: o.idleTimeout,
		RequireAuth: o.requireAuth,
	}
	if o.persistDir != "" {
		ckpt, err = persist.NewCheckpointer(engine, persist.Config{
			Dir:       o.persistDir,
			Interval:  o.ckptInterval,
			FullEvery: o.ckptFullEvery,
		})
		if err != nil {
			return err
		}
		rec.enabled = true
		loading.Store(true)
		srvCfg.Loading = loading.Load
	} else if err := engine.Start(); err != nil {
		return err
	}
	// The error paths' stop; the drain below stops a started engine first
	// and checks the result (Stop is idempotent).
	defer engine.Stop()
	srv, err := server.New(engine, srvCfg)
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	defer srv.Shutdown(time.Second) // the error paths' shutdown; refused once the drain below has run
	adm, err := startAdmin(o, engine, srv, ring, ckpt, loading.Load, stderr)
	if err != nil {
		return err
	}
	defer stopAdmin(adm, stderr)
	fmt.Fprintf(stderr, "tierd: serving %s on %s (policy %s, DRAM %d + NVM %d frames)\n",
		modeLabel(o), srv.Addr(), engine.PolicyName(), cfg.DRAMPages, cfg.NVMPages)

	if ckpt != nil {
		// Restore residency and pre-crash hotness from the last valid
		// checkpoint (a missing or unreadable file is a cold start), then
		// start the engine — which kicks off the warm-up promotion storm
		// for the pages that were DRAM-resident at the cut — and only then
		// open the data plane.
		t0 := time.Now()
		chain, rs, err := ckpt.Restore()
		if err == nil {
			err = engine.Start()
		}
		if err != nil {
			return err
		}
		rec.restoreMS = float64(time.Since(t0).Microseconds()) / 1000
		rec.restore = rs
		rec.coldStart = chain == nil
		ckpt.Start()
		loading.Store(false)
		if chain == nil {
			fmt.Fprintf(stderr, "tierd: persist %s: no checkpoint, cold start\n", ckpt.Path())
		} else {
			rec.baseRecords = len(chain.Base.Records)
			rec.chainDeltas = chain.Deltas
			rec.chainRecords = len(chain.Records)
			fmt.Fprintf(stderr, "tierd: persist %s: restored %d pages (%d direct to DRAM, %d warm queued, %d skipped) from seq %d (base %d records + %d deltas) in %.1fms\n",
				ckpt.Path(), rs.Restored, rs.WarmDirect, rs.WarmQueued, rs.Skipped+rs.Duplicates+rs.CapacityDrops,
				chain.Seq, rec.baseRecords, chain.Deltas, rec.restoreMS)
		}
	}

	<-ctx.Done()
	fmt.Fprintln(stderr, "tierd: draining (send the signal again to force exit)")

	// Drain order: RESP first (in-flight pipelines finish), then the
	// daemon, then — with -persist — the final checkpoint over the settled
	// residency, then (deferred) the admin plane, which stays scrapable
	// through the drain so an orchestrator watching /readyz sees the
	// lifecycle.
	drainErr := srv.Shutdown(5 * time.Second)
	if err := engine.Stop(); err != nil {
		return err
	}
	if ckpt != nil {
		if err := ckpt.Stop(true); err != nil {
			fmt.Fprintf(stderr, "tierd: final checkpoint: %v\n", err)
		} else {
			rec.finalOK = true
		}
		rec.ckpt = ckpt.Stats()
	}
	invErr := engine.CheckInvariants()
	if invErr != nil {
		fmt.Fprintf(stderr, "tierd: invariants: %v\n", invErr)
	}
	st, es := srv.Stats(), engine.Stats()
	err = emit(o, stdout, serveArtifact(o, engine, st, es, drainErr == nil, invErr == nil, rec),
		serveText(st, es, drainErr, rec))
	return errors.Join(err, drainErr)
}

// modeLabel names what the server fronts for the startup banner.
func modeLabel(o *options) string {
	if o.tenants != "" {
		return "tenants " + o.tenants
	}
	return "workload " + o.workload
}

func serveText(st server.Stats, es tiered.Stats, drainErr error, rec persistReport) string {
	drain := "clean"
	if drainErr != nil {
		drain = drainErr.Error()
	}
	text := fmt.Sprintf(`tierd: served %d commands (%d pipelined) over %d connections (%d evicted, %d reaped); drain %s
placement:  %.1f%% DRAM hits, %.1f%% NVM hits, %d faults
migration:  %d promotions, %d demotions, %d evictions
`,
		st.Commands, st.Pipelined, st.Accepted, st.Evicted, st.Reaped, drain,
		pct(es.HitsDRAM(), es.Accesses), pct(es.HitsNVM(), es.Accesses), es.Faults,
		es.Promotions, es.Demotions, es.Evictions)
	if !rec.enabled {
		return text
	}
	start := fmt.Sprintf("restored %d pages (%d warm) in %.1fms", rec.restore.Restored,
		rec.restore.WarmQueued, rec.restoreMS)
	if rec.coldStart {
		start = "cold start"
	}
	final := "final checkpoint ok"
	if !rec.finalOK {
		final = "final checkpoint FAILED"
	}
	return text + fmt.Sprintf("persist:    %s; %d checkpoints written (%d failed, seq %d); %s\n",
		start, rec.ckpt.Written, rec.ckpt.Failures, rec.ckpt.Seq, final)
}

func serveArtifact(o *options, e *tiered.Engine, st server.Stats, es tiered.Stats,
	clean, invClean bool, rec persistReport) *results.Artifact {
	a := results.NewArtifact("tierd", "net-serve", o.scale, o.seed)
	cfg := e.Config()
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	values := map[string]float64{
		"commands":         float64(st.Commands),
		"pipelined":        float64(st.Pipelined),
		"batched_ops":      float64(st.BatchedOps),
		"conns_accepted":   float64(st.Accepted),
		"conns_evicted":    float64(st.Evicted),
		"conns_reaped":     float64(st.Reaped),
		"auth_failures":    float64(st.AuthFailures),
		"protocol_errors":  float64(st.ProtocolErrors),
		"accesses":         float64(es.Accesses),
		"hits_dram":        float64(es.HitsDRAM()),
		"hits_nvm":         float64(es.HitsNVM()),
		"faults":           float64(es.Faults),
		"promotions":       float64(es.Promotions),
		"demotions":        float64(es.Demotions),
		"evictions":        float64(es.Evictions),
		"clean_drain":      b2f(clean),
		"invariants_clean": b2f(invClean),
	}
	if rec.enabled {
		values["cold_start"] = b2f(rec.coldStart)
		values["restore_pages"] = float64(rec.restore.Restored)
		values["restore_warm"] = float64(rec.restore.WarmQueued)
		values["restore_warm_direct"] = float64(rec.restore.WarmDirect)
		values["restore_skipped"] = float64(rec.restore.Skipped + rec.restore.Duplicates + rec.restore.CapacityDrops)
		values["restore_ms"] = rec.restoreMS
		values["restore_base_records"] = float64(rec.baseRecords)
		values["restore_chain_deltas"] = float64(rec.chainDeltas)
		values["restore_chain_records"] = float64(rec.chainRecords)
		values["checkpoints_written"] = float64(rec.ckpt.Written)
		values["checkpoint_failures"] = float64(rec.ckpt.Failures)
		values["checkpoint_seq"] = float64(rec.ckpt.Seq)
		values["checkpoint_full_cuts"] = float64(rec.ckpt.FullCuts)
		values["checkpoint_delta_cuts"] = float64(rec.ckpt.DeltaCuts)
		values["checkpoint_compactions"] = float64(rec.ckpt.Compactions)
		values["checkpoint_bytes_total"] = float64(rec.ckpt.BytesTotal)
		values["checkpoint_base_bytes"] = float64(rec.ckpt.BaseBytes)
		values["checkpoint_delta_bytes"] = float64(rec.ckpt.DeltaBytes)
		values["checkpoint_last_delta_bytes"] = float64(rec.ckpt.LastDeltaBytes)
		values["final_checkpoint"] = b2f(rec.finalOK)
	}
	a.Add(results.Result{
		ID:        fmt.Sprintf("serve/%s", e.PolicyName()),
		Workload:  "net",
		Policy:    e.PolicyName(),
		Seed:      o.seed,
		DRAMPages: cfg.DRAMPages,
		NVMPages:  cfg.NVMPages,
		Params: map[string]float64{
			"shards": float64(cfg.Shards),
			"nodes":  float64(e.NumNodes()),
		},
		Values: values,
	})
	return a
}

// kpiReport is the recovery KPI: how long the server took to reach 90%
// of the steady-state hit rate it ended the run at, where a hit is any
// access served from resident memory (DRAM or NVM) rather than faulted
// in. A cold start pays a fault for every first touch, dragging the
// early cumulative rate down; a warm restart starts with the restored
// residency and skips that fault storm, so its t90 should be strictly
// smaller — that difference is what the crash smoke asserts. The DRAM
// pair tracks the same t90 over the DRAM-only hit share: storm-only
// warm-up must climb it promotion by promotion, while age-tiered
// warm-up starts near steady state — the delta between the two restart
// modes.
type kpiReport struct {
	t90        time.Duration
	steady     float64
	dramT90    time.Duration
	dramSteady float64
	samples    int
}

// sampleKPI polls the server's cumulative counters over STATS on its own
// connection every 10ms until stopped, then reports the first sample
// whose cumulative hit rate reached 90% of the final one. Samples that
// fail (the server may still answer -LOADING early on) or precede the
// first access are skipped; time runs from the sampler's start, so the
// restore window itself counts against t90.
func sampleKPI(o *options, stop <-chan struct{}) (rep kpiReport) {
	type sample struct {
		at   time.Duration
		rate float64
		dram float64
	}
	start := time.Now()
	var samples []sample
	c, err := server.DialRetry(o.connectAddr, 10*time.Second)
	if err != nil {
		return rep
	}
	defer c.Close()
	if o.auth != "" {
		c.Auth(o.auth)
	}
	// t90 of one rate series: the first sample at >= 90% of the final.
	t90 := func(final float64, rate func(sample) float64) time.Duration {
		at := samples[len(samples)-1].at
		for _, s := range samples {
			if rate(s) >= 0.9*final {
				at = s.at
				break
			}
		}
		return at
	}
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			if len(samples) > 0 {
				last := samples[len(samples)-1]
				rep.steady = last.rate
				rep.dramSteady = last.dram
				rep.samples = len(samples)
				rep.t90 = t90(rep.steady, func(s sample) float64 { return s.rate })
				rep.dramT90 = t90(rep.dramSteady, func(s sample) float64 { return s.dram })
			}
			return rep
		case <-t.C:
			st, err := c.Stats()
			if err != nil {
				continue
			}
			if acc := st["accesses"]; acc > 0 {
				samples = append(samples, sample{
					at:   time.Since(start),
					rate: float64(st["hits_dram"]+st["hits_nvm"]) / float64(acc),
					dram: float64(st["hits_dram"]) / float64(acc),
				})
			}
		}
	}
}

// connect is tierd's benchmark-client mode: replay a workload trace
// against a live tierd -serve over RESP from N connections, pipelined
// at the configured depth — the same loadgen loop the in-process modes
// run, over its RESP target. Closed-loop sends the next batch when the
// previous one is answered (throughput-bound); open-loop paces batches
// on a fixed schedule derived from -rate and measures latency from the
// scheduled send time, so server-side queueing shows up in the
// percentiles instead of being absorbed by a slowed sender. Latency is
// per pipelined batch: at depth 1 per-op round-trip time, above it the
// time the whole batch spent outstanding, the number a capacity plan
// actually needs.
func connect(o *options, stdout io.Writer) error {
	tr := &tenantRun{workload: o.workload, seed: o.seed}
	if _, err := tr.generate(o.scale, true); err != nil {
		return err
	}
	cfg := loadgen.Config{Ops: o.ops, Duration: o.duration, Unit: o.pipeline}
	if o.openLoop {
		cfg.Rate = o.rate
	}

	var kpi kpiReport
	stopKPI := func() {}
	if o.kpi {
		stop, done := make(chan struct{}), make(chan kpiReport, 1)
		go func() { done <- sampleKPI(o, stop) }()
		stopKPI = func() { close(stop); kpi = <-done }
	}
	res, err := loadgen.Run([]loadgen.Load{{
		Recs:    append(tr.warm, tr.roi...),
		Workers: o.connections,
		Open:    loadgen.RESP(o.connectAddr, o.auth),
	}}, cfg)
	stopKPI()
	if err != nil {
		return err
	}
	rep := res.Aggregate
	if rep.Ops == 0 {
		return errors.New("no operations completed")
	}

	// One extra connection fetches the server's counters for the report.
	var serverStats map[string]int64
	if c, err := server.Dial(o.connectAddr, 2*time.Second); err == nil {
		if o.auth != "" {
			c.Auth(o.auth)
		}
		serverStats, _ = c.Stats()
		c.Close()
	}

	return emit(o, stdout, clientArtifact(o, rep, serverStats, kpi), clientText(o, rep, serverStats, kpi))
}

func clientText(o *options, rep loadgen.Report, serverStats map[string]int64, kpi kpiReport) string {
	mode := "closed"
	if o.openLoop {
		mode = fmt.Sprintf("open @ %.0f ops/s", o.rate)
	}
	text := fmt.Sprintf(`tierd: %s over RESP to %s, %d connections x pipeline %d, %s loop
throughput: %12.0f ops/s (%d ops in %v)
batch rtt:  p50 %v, p95 %v, p99 %v, max %v
`,
		o.workload, o.connectAddr, o.connections, o.pipeline, mode,
		rep.OpsPerSec, rep.Ops, rep.Elapsed.Round(time.Millisecond),
		rep.P50, rep.P95, rep.P99, rep.Max)
	if serverStats != nil {
		text += fmt.Sprintf("server:     %d accesses, %d DRAM hits, %d NVM hits, %d faults, %d commands\n",
			serverStats["accesses"], serverStats["hits_dram"],
			serverStats["hits_nvm"], serverStats["faults"], serverStats["commands"])
	}
	if o.kpi {
		text += fmt.Sprintf("kpi:        t90 %v to reach 90%% of steady-state hit rate %.3f (DRAM-tier t90 %v of %.3f; %d samples)\n",
			kpi.t90.Round(time.Millisecond), kpi.steady,
			kpi.dramT90.Round(time.Millisecond), kpi.dramSteady, kpi.samples)
	}
	return text
}

func clientArtifact(o *options, rep loadgen.Report, serverStats map[string]int64, kpi kpiReport) *results.Artifact {
	a := results.NewArtifact("tierd", "net-client", o.scale, o.seed)
	mode := 0.0
	if o.openLoop {
		mode = 1
	}
	values := latencyValues(rep)
	// The server's own view rides along so the smoke gate can assert the
	// load actually hit the engine, not just the socket.
	for k, v := range serverStats {
		values["server_"+k] = float64(v)
	}
	if o.kpi {
		values["kpi_t90_ms"] = float64(kpi.t90.Microseconds()) / 1000
		values["kpi_steady_hit_rate"] = kpi.steady
		values["kpi_dram_t90_ms"] = float64(kpi.dramT90.Microseconds()) / 1000
		values["kpi_dram_steady_hit_rate"] = kpi.dramSteady
		values["kpi_samples"] = float64(kpi.samples)
	}
	a.Add(results.Result{
		ID:       fmt.Sprintf("client/%s/c%dp%d", o.workload, o.connections, o.pipeline),
		Workload: o.workload,
		Policy:   "net",
		Seed:     o.seed,
		Params: map[string]float64{
			"connections": float64(o.connections),
			"pipeline":    float64(o.pipeline),
			"open_loop":   mode,
			"rate":        o.rate,
		},
		Values: values,
	})
	return a
}
