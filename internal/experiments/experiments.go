// Package experiments defines and runs the paper's evaluation: every
// workload of Table III against the DRAM-only, NVM-only, CLOCK-DWF and
// proposed policies, and the figure builders that reproduce Figs. 1, 2a-c
// and 4a-c plus the characterization tables.
//
// Methodology (Section V-A):
//   - total memory = 75% of the workload's distinct pages, DRAM = 10% of
//     that for the hybrid policies; the single-technology baselines get the
//     full total;
//   - each policy first services a warmup pass (every page touched once, as
//     the pre-ROI initialization) whose statistics are discarded, then the
//     measured ROI stream;
//   - all four policies replay bit-identical traces.
//
// Execution goes through internal/runner: grids and sweeps decompose into
// one runner.Job per (workload, configuration, policy), traces are
// generated once per (workload, scale, seed) and replayed read-only into
// every policy, and results assemble positionally so output is identical
// at any parallelism.
package experiments

import (
	"fmt"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/dramcache"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/policy"
	"hybridmem/internal/runner"
	"hybridmem/internal/sim"
	"hybridmem/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale uniformly scales every workload's footprint and request count
	// (1.0 replays full Table III sizes; the default trades a little tail
	// accuracy for CI-friendly runtimes).
	Scale float64
	// Seed drives trace generation; runs are deterministic in (Scale, Seed).
	Seed int64
	// Spec is the memory-technology parameter set (Table IV).
	Spec memspec.Spec
	// Sizing is the provisioning rule (75% / 10%).
	Sizing memspec.Sizing
	// Core configures the proposed scheme; DWF configures CLOCK-DWF.
	Core core.Config
	DWF  clockdwf.Config
	// Adaptive, when true, replaces the fixed-threshold proposed scheme
	// with the adaptive-threshold extension.
	Adaptive bool
	// AdaptiveCfg configures the adaptive controller (used when Adaptive).
	AdaptiveCfg core.AdaptiveConfig
	// CheckEvery enables policy invariant checks every N accesses (0 off).
	CheckEvery int
	// MinPages floors each workload's scaled footprint: tiny workloads
	// (blackscholes) are scaled less aggressively so zone sizes and counter
	// windows stay meaningful.
	MinPages int
	// Parallel is the worker-pool width for grid and sweep execution
	// (0 = GOMAXPROCS, 1 = serial). Results are identical at any width.
	Parallel int
	// Cache, when set, shares materialized traces across calls (one
	// figures/sweep invocation reuses each workload trace everywhere).
	// Nil gives each call a private cache.
	Cache *runner.TraceCache
}

// effectiveScale returns the per-workload scale after the MinPages floor.
func (c Config) effectiveScale(spec workload.Spec) float64 {
	s := c.Scale
	if c.MinPages > 0 && float64(spec.Pages())*s < float64(c.MinPages) {
		s = float64(c.MinPages) / float64(spec.Pages())
	}
	if s > 1 {
		s = 1
	}
	return s
}

// pool returns the worker pool the configuration selects.
func (c Config) pool() *runner.Pool { return runner.New(c.Parallel) }

// traceCache returns the shared cache, or a private one per call.
func (c Config) traceCache() *runner.TraceCache {
	if c.Cache != nil {
		return c.Cache
	}
	return runner.NewTraceCache()
}

// traces returns the (cached) trace handle for spec under this config.
func (c Config) traces(tc *runner.TraceCache, spec workload.Spec) *runner.Traces {
	return tc.Get(spec, c.effectiveScale(spec), c.Seed)
}

// DefaultConfig returns the reproduction settings.
func DefaultConfig() Config {
	return Config{
		Scale:       0.02,
		Seed:        1,
		Spec:        memspec.Default(),
		Sizing:      memspec.DefaultSizing(),
		Core:        core.DefaultConfig(),
		DWF:         clockdwf.DefaultConfig(),
		AdaptiveCfg: core.DefaultAdaptiveConfig(),
		MinPages:    256,
	}
}

// PolicyID names the four standard policies of the evaluation.
type PolicyID string

// The evaluated policies.
const (
	DRAMOnly PolicyID = "dram-only"
	NVMOnly  PolicyID = "nvm-only"
	ClockDWF PolicyID = "clock-dwf"
	Proposed PolicyID = "proposed"
)

// StandardPolicies lists the evaluation's policy set in canonical order.
func StandardPolicies() []PolicyID {
	return []PolicyID{DRAMOnly, NVMOnly, ClockDWF, Proposed}
}

// WorkloadRun holds one workload's results across all policies.
type WorkloadRun struct {
	Workload  workload.Spec
	Pages     int // scaled footprint
	DRAMPages int // hybrid DRAM zone frames
	NVMPages  int // hybrid NVM zone frames
	Reports   map[PolicyID]*model.Report
	Results   map[PolicyID]*sim.Result
	Policies  map[PolicyID]policy.Policy
}

// Report returns the named policy's model evaluation.
func (w *WorkloadRun) Report(id PolicyID) *model.Report { return w.Reports[id] }

// The policies beyond the standard four that BuildPolicy constructs: the
// adaptive-threshold variant by name (what Config.Adaptive substitutes for
// Proposed) and the two comparison architectures of the arch study.
const (
	proposedAdaptive PolicyID = "proposed-adaptive"
	dramCache        PolicyID = "dram-cache"
	staticPartition  PolicyID = "static-partition"
)

// BuildPolicy constructs one policy instance for a footprint of pages: the
// one place a policy name becomes a policy, for the grid, the extension
// studies and the CLI alike.
func BuildPolicy(id PolicyID, cfg Config, pages int) (policy.Policy, error) {
	total := cfg.Sizing.TotalPages(pages)
	dram, nvm := cfg.Sizing.Partition(pages)
	switch id {
	case DRAMOnly:
		return policy.NewDRAMOnly(total)
	case NVMOnly:
		return policy.NewNVMOnly(total)
	case ClockDWF:
		return clockdwf.New(dram, nvm, cfg.DWF)
	case Proposed:
		if cfg.Adaptive {
			return core.NewAdaptive(dram, nvm, cfg.Core, cfg.AdaptiveCfg)
		}
		return core.New(dram, nvm, cfg.Core)
	case proposedAdaptive:
		return core.NewAdaptive(dram, nvm, cfg.Core, cfg.AdaptiveCfg)
	case dramCache:
		// Same silicon budget as the migration architecture: the DRAM
		// frames become cache, the NVM frames are the sole main memory.
		return dramcache.New(dram, nvm, dramcache.DefaultConfig())
	case staticPartition:
		return policy.NewStaticPartition(dram, nvm)
	default:
		return nil, fmt.Errorf("experiments: unknown policy %q", id)
	}
}

// policyJob builds the runner job for one policy replaying tr under cfg.
func policyJob(id PolicyID, cfg Config, tr *runner.Traces, idPrefix string) runner.Job {
	return runner.Job{
		ID:    idPrefix + string(id),
		Seed:  cfg.Seed,
		Trace: tr,
		Spec:  cfg.Spec,
		Opts:  sim.Options{CheckEvery: cfg.CheckEvery},
		Build: func() (policy.Policy, error) {
			_, _, pages, err := tr.Materialize()
			if err != nil {
				return nil, err
			}
			return BuildPolicy(id, cfg, pages)
		},
	}
}

// policyJobs builds the standard four-policy job set for one configuration.
func policyJobs(cfg Config, tr *runner.Traces, idPrefix string) []runner.Job {
	ids := StandardPolicies()
	jobs := make([]runner.Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, policyJob(id, cfg, tr, idPrefix))
	}
	return jobs
}

// assembleRun collects the standard four policy results into a WorkloadRun.
// Results arrive positionally in StandardPolicies order.
func assembleRun(spec workload.Spec, cfg Config, tr *runner.Traces, rs []runner.JobResult) (*WorkloadRun, error) {
	_, _, pages, err := tr.Materialize()
	if err != nil {
		return nil, fmt.Errorf("experiments: trace for %s: %w", spec.Name, err)
	}
	dram, nvm := cfg.Sizing.Partition(pages)
	run := &WorkloadRun{
		Workload:  spec,
		Pages:     pages,
		DRAMPages: dram,
		NVMPages:  nvm,
		Reports:   make(map[PolicyID]*model.Report, len(rs)),
		Results:   make(map[PolicyID]*sim.Result, len(rs)),
		Policies:  make(map[PolicyID]policy.Policy, len(rs)),
	}
	for i, id := range StandardPolicies() {
		r := rs[i]
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", id, spec.Name, r.Err)
		}
		run.Results[id] = r.Result
		run.Reports[id] = r.Report
		run.Policies[id] = r.Policy
	}
	return run, nil
}

func errUnknownWorkload(name string) error {
	return fmt.Errorf("experiments: unknown workload %q", name)
}

// RunWorkload evaluates one Table III workload under all four policies.
func RunWorkload(name string, cfg Config) (*WorkloadRun, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, errUnknownWorkload(name)
	}
	return RunSpec(spec, cfg)
}

// RunSpec evaluates an arbitrary workload spec under all four policies.
func RunSpec(spec workload.Spec, cfg Config) (*WorkloadRun, error) {
	tr := cfg.traces(cfg.traceCache(), spec)
	rs, err := cfg.pool().RunJobs(policyJobs(cfg, tr, spec.Name+"/"))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return assembleRun(spec, cfg, tr, rs)
}

// RunAll evaluates every Table III workload, in parallel, returning runs in
// workload name order. The whole grid — every (workload, policy) pair — is
// one runner invocation, so work balances across the pool at job (not
// workload) granularity.
func RunAll(cfg Config) ([]*WorkloadRun, error) {
	names := workload.Names()
	tc := cfg.traceCache()
	specs := make([]workload.Spec, len(names))
	trs := make([]*runner.Traces, len(names))
	jobs := make([]runner.Job, 0, 4*len(names))
	for i, name := range names {
		spec, _ := workload.ByName(name)
		specs[i] = spec
		trs[i] = cfg.traces(tc, spec)
		jobs = append(jobs, policyJobs(cfg, trs[i], name+"/")...)
	}
	rs, err := cfg.pool().RunJobs(jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	width := len(StandardPolicies())
	runs := make([]*WorkloadRun, len(names))
	for i := range names {
		run, err := assembleRun(specs[i], cfg, trs[i], rs[i*width:(i+1)*width])
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	return runs, nil
}
