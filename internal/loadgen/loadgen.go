// Package loadgen is the repo's one load driver: workers replay traces
// into a target — the engine in-process, or a tierd server over RESP — and
// the run reports throughput and latency, in aggregate and per tenant.
// cmd/tierd's load and client modes, the examples and the scaling test all
// measure this loop, so an in-process figure and a wire figure differ by
// the transport and nothing else.
//
// Latency is one sample per issued unit (Config.Unit records: an engine
// batch, a RESP pipeline). At unit size 1 that is per-access service time;
// above it, the time the whole unit spent outstanding.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hybridmem/internal/obs"
	"hybridmem/internal/trace"
)

// Target is one worker's private handle on the system under load. It is
// used from that worker's goroutine only.
type Target interface {
	// Issue submits recs as one unit and returns once every one of them
	// has been answered. recs is reused after Issue returns.
	Issue(recs []trace.Record) error
	Close() error
}

// Load is one tenant's slice of a run: its own trace replayed by its own
// workers into targets opened one per worker.
type Load struct {
	// Recs is the trace the workers replay circularly; worker w of n
	// starts at len(Recs)*w/n so they do not march in lockstep.
	Recs []trace.Record
	// Workers is the number of concurrent workers.
	Workers int
	// Open opens one worker's target (Engine or RESP).
	Open func() (Target, error)
}

// Config bounds and shapes a run.
type Config struct {
	// Ops is the total record budget, split evenly across loads (earlier
	// loads take the remainder) and then across each load's workers; it is
	// issued exactly, the last unit of a worker clamped to what is left.
	// 0 means run until Duration expires.
	Ops int64
	// Duration is the wall-clock budget from the start of the run. 0 means
	// run until Ops are done; with both set, whichever is hit first ends
	// the run.
	Duration time.Duration
	// Unit is the number of records issued per Target.Issue call (0 means
	// 1).
	Unit int
	// Rate, when positive, makes the run open-loop: units go out on a
	// fixed schedule totalling Rate records/s across all workers, and
	// latency is measured from the scheduled send, so a late unit carries
	// its lateness. 0 is closed-loop: the next unit is issued as soon as
	// the previous one is answered.
	Rate float64
}

// Report is the outcome of a run, or of one load's share of it.
type Report struct {
	// Ops is the number of records answered.
	Ops int64
	// Elapsed is the aggregate's wall time from the start of the run
	// (target dials included) to the last worker's return; for one load,
	// the window from its first worker's first unit to its last worker's
	// last answer, so a load that finishes its share early is not rated
	// over another's tail.
	Elapsed   time.Duration
	OpsPerSec float64
	// P50, P95, P99 and Max summarize per-unit latency (log-bucketed:
	// quantiles are within 2x).
	P50, P95, P99, Max time.Duration
}

// Result is the merged aggregate plus one Report per load, in the order
// the loads were given.
type Result struct {
	Aggregate Report
	Loads     []Report
}

// worker is one goroutine's private state; nothing in it is shared until
// the run has joined.
type worker struct {
	hist         obs.Histogram
	ops          int64
	began, ended time.Time
	err          error
}

// share is part i of total split n ways, earlier parts taking the
// remainder.
func share(total int64, n, i int) int64 {
	s := total / int64(n)
	if int64(i) < total%int64(n) {
		s++
	}
	return s
}

// Run drives every load's workers concurrently until the budget runs out
// and returns the first worker error, if any.
func Run(loads []Load, cfg Config) (*Result, error) {
	if len(loads) == 0 {
		return nil, errors.New("loadgen: need at least one load")
	}
	if cfg.Ops <= 0 && cfg.Duration <= 0 {
		return nil, errors.New("loadgen: need an op or time budget")
	}
	if cfg.Unit < 0 || cfg.Rate < 0 {
		return nil, fmt.Errorf("loadgen: unit %d and rate %g must be non-negative", cfg.Unit, cfg.Rate)
	}
	total := 0
	for i, l := range loads {
		if len(l.Recs) == 0 {
			return nil, fmt.Errorf("loadgen: load %d has an empty trace", i)
		}
		if l.Workers < 1 {
			return nil, fmt.Errorf("loadgen: load %d needs at least 1 worker, got %d", i, l.Workers)
		}
		total += l.Workers
	}
	unit := max(cfg.Unit, 1)
	budget := cfg.Ops
	if budget <= 0 {
		budget = math.MaxInt64 // time-bounded only; its shares stay out of reach
	}
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(unit) * float64(total) * float64(time.Second) / cfg.Rate)
	}

	workers := make([][]worker, len(loads))
	start := time.Now()
	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	var wg sync.WaitGroup
	for t, l := range loads {
		workers[t] = make([]worker, l.Workers)
		loadBudget := share(budget, len(loads), t)
		for w := range workers[t] {
			wg.Add(1)
			go func(wk *worker) {
				defer wg.Done()
				wk.err = wk.drive(l, w, share(loadBudget, l.Workers, w), unit, interval, deadline)
			}(&workers[t][w])
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := &Result{Loads: make([]Report, len(loads))}
	var all obs.Histogram
	var ops int64
	for t := range workers {
		var merged obs.Histogram
		var loadOps int64
		var began, ended time.Time
		for w := range workers[t] {
			wk := &workers[t][w]
			if wk.err != nil {
				return nil, fmt.Errorf("loadgen: load %d worker %d: %w", t, w, wk.err)
			}
			if wk.ops == 0 {
				continue
			}
			merged.Merge(&wk.hist)
			loadOps += wk.ops
			if began.IsZero() || wk.began.Before(began) {
				began = wk.began
			}
			if wk.ended.After(ended) {
				ended = wk.ended
			}
		}
		all.Merge(&merged)
		ops += loadOps
		res.Loads[t] = report(&merged, loadOps, ended.Sub(began))
	}
	res.Aggregate = report(&all, ops, elapsed)
	return res, nil
}

// drive is the worker loop: worker w of l.Workers issues up to budget
// records in units, pacing them interval apart when that is positive.
func (wk *worker) drive(l Load, w int, budget int64, unit int, interval time.Duration, deadline time.Time) error {
	if budget == 0 {
		return nil
	}
	tgt, err := l.Open()
	if err != nil {
		return err
	}
	// Every reply has been read by the time the loop ends, so a failed
	// Close loses nothing.
	defer tgt.Close()

	recs := l.Recs
	i := len(recs) * w / l.Workers
	buf := make([]trace.Record, unit)
	wk.began = time.Now()
	// sent is when the unit went out: the previous answer closed-loop (the
	// worker reissues at once, and one clock read per unit is all the
	// unit-1 engine path can afford), the scheduled slot open-loop.
	sent, next := wk.began, wk.began
	for wk.ops < budget {
		u := buf
		if rem := budget - wk.ops; int64(len(u)) > rem {
			u = u[:rem]
		}
		for j := range u {
			u[j] = recs[i]
			if i++; i == len(recs) {
				i = 0
			}
		}
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			sent = next
			next = next.Add(interval)
		}
		if err := tgt.Issue(u); err != nil {
			return err
		}
		now := time.Now()
		wk.hist.Observe(int64(now.Sub(sent)))
		wk.ops += int64(len(u))
		sent, wk.ended = now, now
		if !deadline.IsZero() && now.After(deadline) {
			break
		}
	}
	return nil
}

// report summarizes a merged histogram and op count over a window.
func report(h *obs.Histogram, ops int64, elapsed time.Duration) Report {
	r := Report{
		Ops:     ops,
		Elapsed: elapsed,
		P50:     time.Duration(h.Quantile(0.50)),
		P95:     time.Duration(h.Quantile(0.95)),
		P99:     time.Duration(h.Quantile(0.99)),
		Max:     time.Duration(h.Max()),
	}
	if elapsed > 0 {
		r.OpsPerSec = float64(ops) / elapsed.Seconds()
	}
	return r
}
