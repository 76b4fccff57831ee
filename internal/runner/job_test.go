package runner

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"hybridmem/internal/memspec"
	"hybridmem/internal/policy"
	"hybridmem/internal/results"
	"hybridmem/internal/sim"
)

func testJobs(t *testing.T, n int, tr *Traces) []Job {
	t.Helper()
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			ID:    fmt.Sprintf("fake/job%d", i),
			Seed:  int64(i),
			Trace: tr,
			Spec:  memspec.Default(),
			Build: func() (policy.Policy, error) {
				_, _, pages, err := tr.Materialize()
				if err != nil {
					return nil, err
				}
				return policy.NewDRAMOnly(pages)
			},
		}
	}
	return jobs
}

func TestRunJobsPositionalResults(t *testing.T) {
	tr := newFakeTraces(8, 200, nil)
	for _, workers := range []int{1, 8} {
		rs, err := New(workers).RunJobs(testJobs(t, 6, tr))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range rs {
			if r.ID != fmt.Sprintf("fake/job%d", i) {
				t.Errorf("workers=%d: slot %d holds %q", workers, i, r.ID)
			}
			if r.Err != nil {
				t.Errorf("%s: %v", r.ID, r.Err)
			}
			if r.Report == nil || r.Result == nil || r.Policy == nil {
				t.Fatalf("%s: incomplete result", r.ID)
			}
			if r.Report.Accesses != 200 {
				t.Errorf("%s: %d accesses, want 200", r.ID, r.Report.Accesses)
			}
			if r.Elapsed <= 0 {
				t.Errorf("%s: elapsed %v not captured", r.ID, r.Elapsed)
			}
		}
	}
}

func TestRunJobsErrorCapture(t *testing.T) {
	tr := newFakeTraces(8, 100, nil)
	sentinel := errors.New("bad policy")
	jobs := testJobs(t, 4, tr)
	jobs[2].Build = func() (policy.Policy, error) { return nil, sentinel }
	rs, err := New(4).RunJobs(jobs)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if !strings.Contains(err.Error(), "fake/job2") {
		t.Errorf("error %q does not name the failing job", err)
	}
	if rs[2].Err == nil || rs[2].Report != nil {
		t.Error("failing slot should carry the error and no report")
	}
	// Siblings complete despite the failure.
	for _, i := range []int{0, 1, 3} {
		if rs[i].Err != nil || rs[i].Report == nil {
			t.Errorf("job %d should have succeeded: %v", i, rs[i].Err)
		}
	}
}

func TestRunJobsTraceErrorPropagates(t *testing.T) {
	sentinel := errors.New("trace failed")
	tr := NewTraces(1, func() (TraceGen, error) { return nil, sentinel })
	rs, err := New(2).RunJobs(testJobs(t, 3, tr))
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	for _, r := range rs {
		if !errors.Is(r.Err, sentinel) {
			t.Errorf("%s: err = %v", r.ID, r.Err)
		}
	}
}

// TestRunJobsDeterministicAcrossWidths is the runner-level half of the
// acceptance criterion: identical jobs produce byte-identical artifacts at
// any pool width.
func TestRunJobsDeterministicAcrossWidths(t *testing.T) {
	encode := func(workers int) []byte {
		tr := newFakeTraces(16, 500, nil)
		rs, err := New(workers).RunJobs(testJobs(t, 8, tr))
		if err != nil {
			t.Fatal(err)
		}
		a := results.NewArtifact("test", "grid", 1, 1)
		for _, r := range rs {
			a.Add(results.Result{ID: r.ID, Seed: r.Seed, Metrics: MetricsFrom(r.Report)})
		}
		b, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := encode(1)
	for _, workers := range []int{2, 8, 32} {
		if par := encode(workers); !bytes.Equal(serial, par) {
			t.Errorf("workers=%d: artifact bytes differ from serial run", workers)
		}
	}
}

func TestRunJobsUsesSimOptions(t *testing.T) {
	// CheckEvery exercises the simulator's invariant-checking path end to
	// end through the runner.
	tr := newFakeTraces(8, 100, nil)
	jobs := testJobs(t, 1, tr)
	jobs[0].Opts = sim.Options{CheckEvery: 10}
	rs, err := New(1).RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
}
