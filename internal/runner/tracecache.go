package runner

import (
	"sync"
	"sync/atomic"

	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// TraceGen is the generator shape the cache materializes: a deterministic
// ROI stream of a known length plus the pre-ROI warmup stream and the scaled
// footprint. workload.Generator and workload.Mix both satisfy it.
type TraceGen interface {
	trace.Source
	WarmupSource(seed int64) trace.Source
	Pages() int
	TotalAccesses() int64
}

// Traces is a lazily materialized (warmup, ROI) trace pair. Materialize is
// safe for concurrent use and generates at most once; every caller after
// the first gets the same read-only slices. Jobs replay them through fresh
// trace.SliceSource cursors, so one cached trace feeds any number of
// concurrent simulations.
type Traces struct {
	seed int64
	make func() (TraceGen, error)

	once  sync.Once
	ready atomic.Bool
	onGen func()

	warm, roi []trace.Record
	pages     int
	err       error
}

// Ready reports whether the traces are already materialized. Callers that
// can stream a generator in constant memory (characterization passes) use
// it to reuse an existing materialization without forcing one.
func (t *Traces) Ready() bool { return t.ready.Load() }

// NewTraces returns an uncached handle over an arbitrary generator factory
// (used for mixes and other one-off streams). The warmup stream is seeded
// with seed+1, matching the evaluation methodology: the warmup is a
// distinct pre-ROI initialization pass, not a replay of the ROI.
func NewTraces(seed int64, gen func() (TraceGen, error)) *Traces {
	return &Traces{seed: seed, make: gen}
}

// Materialize generates (once) and returns the warmup stream, the ROI
// stream and the scaled page footprint. The returned slices are shared:
// callers must treat them as read-only and wrap them in trace.SliceSource
// for replay.
func (t *Traces) Materialize() (warm, roi []trace.Record, pages int, err error) {
	t.once.Do(func() {
		gen, err := t.make()
		if err != nil {
			t.err = err
			return
		}
		// The warmup touches every page once and the ROI's length is the
		// generator's request count, so neither slice ever grows.
		t.pages = gen.Pages()
		t.warm = trace.AppendAll(make([]trace.Record, 0, t.pages), gen.WarmupSource(t.seed+1))
		t.roi = trace.AppendAll(make([]trace.Record, 0, gen.TotalAccesses()), gen)
		t.ready.Store(true)
		if t.onGen != nil {
			t.onGen()
		}
	})
	return t.warm, t.roi, t.pages, t.err
}

// Sources returns warmup and ROI streams plus the scaled footprint:
// replaying the materialized slices when generation already happened,
// otherwise streaming a fresh generator in constant memory. For
// consumers that only fold the stream into counters (characterization,
// hit-ratio studies), this avoids pinning full record slices just to
// read them once.
func (t *Traces) Sources() (warm, roi trace.Source, pages int, err error) {
	if t.Ready() {
		w, r, p, err := t.Materialize()
		if err != nil {
			return nil, nil, 0, err
		}
		return trace.NewSliceSource(w), trace.NewSliceSource(r), p, nil
	}
	gen, err := t.make()
	if err != nil {
		return nil, nil, 0, err
	}
	return gen.WarmupSource(t.seed + 1), gen, gen.Pages(), nil
}

// traceKey identifies one deterministic trace: a workload name at a scale
// and seed. Everything else (thresholds, sizing, memory technology) leaves
// the trace untouched, which is what makes the cache profitable — an
// 8-point threshold sweep replays one generation 8×4 times.
type traceKey struct {
	name  string
	scale float64
	seed  int64
}

// TraceCache shares materialized traces across jobs. It is safe for
// concurrent use; each distinct (workload, scale, seed) is generated
// exactly once no matter how many jobs request it or how wide the pool is.
type TraceCache struct {
	mu      sync.Mutex
	entries map[traceKey]*Traces
	gens    atomic.Int64
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{entries: make(map[traceKey]*Traces)}
}

// Get returns the cache's handle for spec at (scale, seed), creating it on
// first request. Generation is deferred to the first Materialize call, so
// it runs on a pool worker rather than the scheduling goroutine.
func (c *TraceCache) Get(spec workload.Spec, scale float64, seed int64) *Traces {
	k := traceKey{name: spec.Name, scale: scale, seed: seed}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.entries[k]; ok {
		return t
	}
	t := NewTraces(seed, func() (TraceGen, error) {
		return workload.NewGenerator(spec, scale, seed)
	})
	t.onGen = func() { c.gens.Add(1) }
	c.entries[k] = t
	return t
}

// Generations reports how many traces have actually been generated — the
// observable behind the cache's "exactly once per spec" contract.
func (c *TraceCache) Generations() int64 { return c.gens.Load() }

// Len returns the number of distinct trace keys requested so far.
func (c *TraceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
