package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hybridmem/internal/tiered"
)

const (
	// engineShards pins the page-table shard count: the engine's default is
	// 4×GOMAXPROCS, which would make every count depend on the host.
	engineShards = 64
	// loadThreads is the number of load threads and connections of every
	// concurrent workload. It is fixed, because every concurrent metric
	// moves with it; a host with fewer CPUs is refused.
	loadThreads = 2
)

// onlineEngine is the engine the concurrent workloads share a shape of:
// 147,456 frames, the paper's scheme, the daemon at its default 2 ms scan.
func (rc *runCtx) onlineEngine() tiered.Config {
	return tiered.Config{Policy: tiered.Proposed, DRAMPages: rc.size(16384), NVMPages: rc.size(131072), Shards: engineShards}
}

// runCtx is what one run of one workload is given.
type runCtx struct {
	seed    int64
	seconds float64 // length of the timed phase; fixed-work workloads size their work by it
	trace   bool
	smoke   bool   // sizes cut to a sixteenth: checks only
	dir     string // parent of the run's private checkpoint directory
	epoch   time.Time
	tracers []*tracer
}

// size is n, or a sixteenth of it in a smoke run.
func (rc *runCtx) size(n int) int {
	if rc.smoke {
		return max(n/16, 1)
	}
	return n
}

// dur is a share of the timed phase.
func (rc *runCtx) dur(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// tracer returns a new tracer with a share of the run's span budget.
func (rc *runCtx) tracer(capacity int) *tracer {
	t := newTracer(rc.epoch, capacity)
	rc.tracers = append(rc.tracers, t)
	return t
}

// outcome is what one run measured.
type outcome struct {
	metrics   map[string]float64
	samples   map[string]summary // the sample behind a percentile metric, in the metric's unit
	params    map[string]any     // the workload's fixed parameters
	attempted int64
	failed    int64
	failures  []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]summary{}, params: map[string]any{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

// setP50 records a timing's median under name, in units of div ns, and
// notes its sample count.
func (o *outcome) setP50(name string, s summary, div float64) {
	s.P50, s.Tail = s.P50/div, s.Tail/div
	o.metrics[name] = s.P50
	o.samples[name] = s
}

// setP50P99 records the median and the 99th percentile of one sample, in
// units of div ns. It sorts samples in place.
func (o *outcome) setP50P99(p50, p99 string, samples []int64, div float64) summary {
	s := summarize(samples)
	o.setP50(p50, s, div)
	o.metrics[p99] = percentile(samples, 0.99) / div
	o.samples[p99] = summary{N: s.N}
	return s
}

// ops counts operations the workload issued and how many of them failed.
func (o *outcome) ops(attempted, failed int64) {
	o.attempted += attempted
	o.failed += failed
}

// check counts one output check as an attempted operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkEngine runs the two checks every engine workload ends on, once the
// engine is stopped: it counted exactly the accesses issued over its whole
// life, and its table agrees with its pools, quotas and ledgers.
func (o *outcome) checkEngine(e *tiered.Engine, issued int64) {
	got := e.Stats().Accesses
	o.check(got == issued, "engine counted %d accesses, %d were issued", got, issued)
	err := e.CheckInvariants()
	o.check(err == nil, "CheckInvariants: %v", err)
}

// describe names an engine's fixed parameters for the result file.
func describe(cfg tiered.Config) string {
	scan := "default 2ms"
	if cfg.ScanInterval != 0 {
		scan = cfg.ScanInterval.String()
	}
	return fmt.Sprintf("DRAMPages %d, NVMPages %d, Shards %d, policy %s, scan %s", cfg.DRAMPages, cfg.NVMPages, cfg.Shards, cfg.Policy, scan)
}

// drive runs the load threads for d: each is told to stop through its
// flag, and drive returns what each measured once all have.
func drive[T any](d time.Duration, thread func(w int, stop *atomic.Bool) T) []T {
	var stop atomic.Bool
	parts := make([]T, loadThreads)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = thread(w, &stop)
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	return parts
}

// heapMB is the live heap after a collection, in MiB. The caller keeps the
// workload's objects reachable across the call.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procSnap is process CPU time and allocation count at one instant.
type procSnap struct {
	userUS, sysUS float64
	mallocs       uint64
}

func procNow() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return procSnap{userUS: tv(ru.Utime), sysUS: tv(ru.Stime), mallocs: ms.Mallocs}
}

// setProc records the process's CPU and allocations per operation between
// two snapshots (load threads and the served side together).
func (o *outcome) setProc(a, b procSnap, ops float64) {
	if ops == 0 {
		return
	}
	cpu := (b.userUS - a.userUS) + (b.sysUS - a.sysUS)
	o.set("proc.cpu_us_per_op", cpu/ops)
	if cpu > 0 {
		o.set("proc.sys_share", (b.sysUS-a.sysUS)/cpu)
	}
	o.set("proc.allocs_per_op", float64(b.mallocs-a.mallocs)/ops)
}

// clockNS measures the cost of one time.Now/time.Since pair, which is what
// every timed call in this program pays.
func clockNS() float64 {
	const n = 1 << 18
	epoch := time.Now()
	var sink int64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += int64(time.Since(epoch))
	}
	d := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(d.Nanoseconds()) / n
}

// setEngineRatios records the engine's hit, fault and migration ratios over
// a Stats delta.
func (o *outcome) setEngineRatios(d tiered.Stats, seconds float64) {
	if d.Accesses == 0 {
		return
	}
	n := float64(d.Accesses)
	o.set("tiered.engine.dram_hit_ratio", float64(d.HitsDRAM())/n)
	o.set("tiered.engine.nvm_hit_ratio", float64(d.HitsNVM())/n)
	o.set("tiered.engine.fault_ratio", float64(d.Faults)/n)
	o.set("tiered.engine.promotions_per_kaccess", 1000*float64(d.Promotions)/n)
	o.set("tiered.engine.demotions_per_kaccess", 1000*float64(d.Demotions)/n)
	o.set("tiered.daemon.queue_drops", float64(d.QueueDrops))
	if seconds > 0 {
		o.set("tiered.daemon.scans_per_s", float64(d.Scans)/seconds)
	}
}
