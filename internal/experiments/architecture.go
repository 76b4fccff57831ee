package experiments

import (
	"fmt"

	"hybridmem/internal/model"
	"hybridmem/internal/runner"
	"hybridmem/internal/workload"
)

// ArchRow compares the two hybrid-memory architectures of Section III on one
// workload: exclusive migration (the proposed scheme) against DRAM-as-cache,
// with CLOCK-DWF and DRAM-only for reference. The paper's argument is that
// caching wins only while locality is high — the cache duplicates capacity
// and stops absorbing traffic when the hot set spreads.
type ArchRow struct {
	Workload string
	// Reports per architecture. Static is the no-migration first-touch
	// hybrid, which isolates what migration itself buys.
	Proposed, Cache, Static, DWF, DRAM *model.Report
	// CacheCleanDrops counts the cache architecture's free invalidations.
	CacheCleanDrops int64
}

// archJobs builds one workload's comparison set: the standard four
// policies plus the cache and static-partition architectures, six jobs
// replaying one cached trace.
func archJobs(name string, cfg Config, tr *runner.Traces) []runner.Job {
	return append(policyJobs(cfg, tr, name+"/"),
		policyJob(dramCache, cfg, tr, name+"/"),
		policyJob(staticPartition, cfg, tr, name+"/"))
}

// ArchComparison runs the comparison for one workload under the standard
// provisioning.
func ArchComparison(name string, cfg Config) (*ArchRow, error) {
	rows, err := ArchAll([]string{name}, cfg)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// ArchAll runs the architecture comparison for several workloads as one
// pool invocation, so trace generation and simulation overlap across
// workloads.
//
// Claim: Section III — exclusive migration beats using the DRAM as a cache of
// the NVM (and a static split) on the same silicon budget.
func ArchAll(names []string, cfg Config) ([]*ArchRow, error) {
	tc := cfg.traceCache()
	specs := make([]workload.Spec, len(names))
	trs := make([]*runner.Traces, len(names))
	var jobs []runner.Job
	for i, name := range names {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, errUnknownWorkload(name)
		}
		specs[i] = spec
		trs[i] = cfg.traces(tc, spec)
		jobs = append(jobs, archJobs(name, cfg, trs[i])...)
	}
	rs, err := cfg.pool().RunJobs(jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: architecture comparison: %w", err)
	}
	width := len(StandardPolicies()) + 2
	rows := make([]*ArchRow, len(names))
	for i, name := range names {
		slot := rs[i*width : (i+1)*width]
		run, err := assembleRun(specs[i], cfg, trs[i], slot[:len(StandardPolicies())])
		if err != nil {
			return nil, err
		}
		cacheRes, staticRes := slot[width-2], slot[width-1]
		rows[i] = &ArchRow{
			Workload:        name,
			Proposed:        run.Report(Proposed),
			Cache:           cacheRes.Report,
			Static:          staticRes.Report,
			DWF:             run.Report(ClockDWF),
			DRAM:            run.Report(DRAMOnly),
			CacheCleanDrops: cacheRes.Result.Counts.DemotionsClean,
		}
	}
	return rows, nil
}
