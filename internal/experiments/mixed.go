package experiments

import (
	"fmt"
	"strings"

	"hybridmem/internal/model"
	"hybridmem/internal/runner"
	"hybridmem/internal/workload"
)

// MixedRun evaluates the policies on a multiprogrammed mix of workloads:
// the consolidated-server scenario the paper's experimental setup implies
// (a quad-core issuing enough parallel traffic "to simulate a production
// server"). Migration quality matters more under consolidation, because a
// DRAM-unfriendly tenant can evict a friendly tenant's hot pages.
type MixedRun struct {
	Names     []string
	Pages     int
	DRAMPages int
	NVMPages  int
	Reports   map[PolicyID]*model.Report
}

// RunMixed runs the standard four policies on the interleaved mix. The mix
// trace is materialized once (an uncached runner handle, since mixes fall
// outside the per-workload cache key) and replayed into all four policies
// through the pool.
//
// Claim: none of the paper's — the consolidated server, the offline twin of
// the online engine's tenants (internal/tiered).
func RunMixed(names []string, cfg Config) (*MixedRun, error) {
	if len(names) < 2 {
		return nil, fmt.Errorf("experiments: mix needs >= 2 workloads")
	}
	var specs []workload.Spec
	minScale := 1.0
	for _, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			return nil, errUnknownWorkload(n)
		}
		specs = append(specs, s)
		if es := cfg.effectiveScale(s); es < minScale {
			minScale = es
		}
	}
	// All tenants run at one scale so their relative intensities match the
	// paper's characterization. The mix's adaptive flag is pinned off: the
	// consolidated-server scenario evaluates the paper's fixed scheme.
	c := cfg
	c.Adaptive = false
	c.CheckEvery = 0
	tr := runner.NewTraces(cfg.Seed, func() (runner.TraceGen, error) {
		return workload.NewMix(specs, minScale, cfg.Seed)
	})
	label := strings.Join(names, "+")
	rs, err := c.pool().RunJobs(policyJobs(c, tr, label+"/"))
	if err != nil {
		return nil, fmt.Errorf("experiments: mix: %w", err)
	}
	_, _, pages, err := tr.Materialize()
	if err != nil {
		return nil, err
	}
	dram, nvm := cfg.Sizing.Partition(pages)
	run := &MixedRun{
		Names: names, Pages: pages, DRAMPages: dram, NVMPages: nvm,
		Reports: make(map[PolicyID]*model.Report, len(rs)),
	}
	for i, id := range StandardPolicies() {
		run.Reports[id] = rs[i].Report
	}
	return run, nil
}

// Label returns a display name for the mix.
func (m *MixedRun) Label() string { return strings.Join(m.Names, "+") }
