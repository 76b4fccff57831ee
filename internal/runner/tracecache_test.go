package runner

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// fakeGen is a tiny deterministic TraceGen for unit tests: a round-robin
// sweep over pages with alternating reads and writes.
type fakeGen struct {
	pages, total, emitted int
}

func (g *fakeGen) Next() (trace.Record, bool) {
	if g.emitted >= g.total {
		return trace.Record{}, false
	}
	i := g.emitted
	g.emitted++
	op := trace.OpRead
	if i%2 == 1 {
		op = trace.OpWrite
	}
	return trace.Record{Addr: uint64(i%g.pages) * 4096, Op: op, GapNS: 10}, true
}

func (g *fakeGen) WarmupSource(seed int64) trace.Source {
	i := 0
	return trace.FuncSource(func() (trace.Record, bool) {
		if i >= g.pages {
			return trace.Record{}, false
		}
		r := trace.Record{Addr: uint64(i) * 4096, Op: trace.OpRead}
		i++
		return r, true
	})
}

func (g *fakeGen) Pages() int { return g.pages }

func (g *fakeGen) TotalAccesses() int64 { return int64(g.total) }

func newFakeTraces(pages, total int, gens *atomic.Int64) *Traces {
	tr := NewTraces(1, func() (TraceGen, error) {
		return &fakeGen{pages: pages, total: total}, nil
	})
	if gens != nil {
		tr.onGen = func() { gens.Add(1) }
	}
	return tr
}

func TestTracesMaterializeOnce(t *testing.T) {
	var gens atomic.Int64
	tr := newFakeTraces(8, 100, &gens)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			warm, roi, pages, err := tr.Materialize()
			if err != nil {
				t.Error(err)
				return
			}
			if len(warm) != 8 || len(roi) != 100 || pages != 8 {
				t.Errorf("got warm=%d roi=%d pages=%d", len(warm), len(roi), pages)
			}
		}()
	}
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Errorf("generated %d times, want exactly 1", n)
	}
}

func TestTracesError(t *testing.T) {
	sentinel := errors.New("gen failed")
	tr := NewTraces(1, func() (TraceGen, error) { return nil, sentinel })
	if _, _, _, err := tr.Materialize(); !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
	// The error is sticky: generation is not retried.
	if _, _, _, err := tr.Materialize(); !errors.Is(err, sentinel) {
		t.Errorf("second call err = %v", err)
	}
}

func TestTraceCacheExactlyOncePerSpec(t *testing.T) {
	spec, ok := workload.ByName("blackscholes")
	if !ok {
		t.Fatal("blackscholes missing")
	}
	c := NewTraceCache()
	tr := c.Get(spec, 0.01, 1)
	if again := c.Get(spec, 0.01, 1); again != tr {
		t.Error("same key returned a different handle")
	}
	// Concurrent materialization through the pool: one generation.
	err := New(8).Do(32, func(i int) error {
		_, _, _, err := c.Get(spec, 0.01, 1).Materialize()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Generations(); n != 1 {
		t.Errorf("generated %d times, want exactly 1", n)
	}
	// A different seed or scale is a different trace.
	if c.Get(spec, 0.01, 2) == tr || c.Get(spec, 0.02, 1) == tr {
		t.Error("distinct keys shared a handle")
	}
	if c.Len() != 3 {
		t.Errorf("cache has %d entries, want 3", c.Len())
	}
	if n := c.Generations(); n != 1 {
		t.Errorf("Get alone should not generate: %d", n)
	}
}

func TestTraceCacheReplayIsStable(t *testing.T) {
	spec, _ := workload.ByName("blackscholes")
	c := NewTraceCache()
	warm, roi, pages, err := c.Get(spec, 0.01, 1).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Both slices are allocated at their final size: the warmup is one
	// record per page, the ROI the generator's request count.
	if len(warm) != pages || cap(warm) != len(warm) || cap(roi) != len(roi) {
		t.Errorf("warm len %d cap %d for %d pages, roi len %d cap %d: want exact sizes",
			len(warm), cap(warm), pages, len(roi), cap(roi))
	}
	// A second cache regenerates; streams must be bit-identical.
	_, roi2, _, err := NewTraceCache().Get(spec, 0.01, 1).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(roi) != len(roi2) {
		t.Fatalf("lengths differ: %d vs %d", len(roi), len(roi2))
	}
	for i := range roi {
		if roi[i] != roi2[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, roi[i], roi2[i])
		}
	}
}
