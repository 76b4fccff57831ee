package experiments

import (
	"fmt"

	"hybridmem/internal/core"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/runner"
	"hybridmem/internal/workload"
)

// ThresholdPoint is one configuration of the threshold sensitivity sweep
// (the Section V-B raytrace discussion: optimal thresholds are workload
// dependent).
type ThresholdPoint struct {
	ReadThreshold, WriteThreshold int
	// Proposed is the proposed scheme's evaluation at these thresholds.
	Proposed *model.Report
	// PowerVsDRAM and AMATVsDWF are the figure-normalized metrics.
	PowerVsDRAM float64
	AMATVsDWF   float64
	// WritesVsNVMOnly is the endurance metric.
	WritesVsNVMOnly float64
}

// ThresholdSweep evaluates the proposed scheme across threshold pairs on one
// workload, holding the baselines fixed. Thresholds only parameterize the
// proposed scheme, so the sweep simulates the three baselines once and one
// proposed run per pair — all on one cached trace, in one pool invocation.
func ThresholdSweep(name string, cfg Config, pairs [][2]int) ([]ThresholdPoint, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("experiments: empty threshold sweep")
	}
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, errUnknownWorkload(name)
	}
	tr := cfg.traces(cfg.traceCache(), spec)

	jobs := []runner.Job{
		policyJob(DRAMOnly, cfg, tr, name+"/"),
		policyJob(NVMOnly, cfg, tr, name+"/"),
		policyJob(ClockDWF, cfg, tr, name+"/"),
	}
	for _, pair := range pairs {
		c := cfg
		c.Core.ReadThreshold = pair[0]
		c.Core.WriteThreshold = pair[1]
		jobs = append(jobs, policyJob(Proposed, c, tr,
			fmt.Sprintf("%s/thr%d-%d/", name, pair[0], pair[1])))
	}
	rs, err := cfg.pool().RunJobs(jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: threshold sweep: %w", err)
	}
	dram, nvm, dwf := rs[0].Report, rs[1].Report, rs[2].Report

	points := make([]ThresholdPoint, 0, len(pairs))
	for i, pair := range pairs {
		prop := rs[3+i].Report
		dwfAMAT := dwf.AMAT.HitDRAM + dwf.AMAT.HitNVM + dwf.AMAT.Migrations()
		propAMAT := prop.AMAT.HitDRAM + prop.AMAT.HitNVM + prop.AMAT.Migrations()
		points = append(points, ThresholdPoint{
			ReadThreshold:   pair[0],
			WriteThreshold:  pair[1],
			Proposed:        prop,
			PowerVsDRAM:     prop.APPR.Total() / dram.APPR.Total(),
			AMATVsDWF:       propAMAT / dwfAMAT,
			WritesVsNVMOnly: float64(prop.NVMWrites.Total()) / float64(nvm.NVMWrites.Total()),
		})
	}
	return points, nil
}

// DefaultThresholdPairs returns the grid used by the sweep experiment.
func DefaultThresholdPairs() [][2]int {
	return [][2]int{
		{4, 6}, {8, 12}, {16, 24}, {32, 48}, {64, 96}, {96, 128}, {128, 192}, {256, 384},
	}
}

// DRAMPoint is one DRAM-share configuration of the provisioning sweep.
type DRAMPoint struct {
	DRAMFraction float64
	Run          *WorkloadRun
	PowerVsDRAM  float64
	AMATVsDWF    float64
}

// DRAMSweep re-runs one workload across DRAM shares of the hybrid memory
// (the paper fixes 10%; the sweep shows how the trade-off moves). All
// points replay one cached trace through one pool invocation.
func DRAMSweep(name string, cfg Config, fractions []float64) ([]DRAMPoint, error) {
	if len(fractions) == 0 {
		return nil, fmt.Errorf("experiments: empty DRAM sweep")
	}
	cfgs := make([]Config, len(fractions))
	for i, f := range fractions {
		c := cfg
		c.Sizing.DRAMFractionOfMem = f
		if err := c.Sizing.Validate(); err != nil {
			return nil, err
		}
		cfgs[i] = c
	}
	runs, err := runPointGrids(name, cfg, cfgs, func(i int) string {
		return fmt.Sprintf("%s/dram%g/", name, fractions[i])
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: DRAM sweep: %w", err)
	}
	points := make([]DRAMPoint, 0, len(fractions))
	for i, run := range runs {
		prop := run.Report(Proposed)
		dwf := run.Report(ClockDWF)
		dram := run.Report(DRAMOnly)
		dwfAMAT := dwf.AMAT.HitDRAM + dwf.AMAT.HitNVM + dwf.AMAT.Migrations()
		propAMAT := prop.AMAT.HitDRAM + prop.AMAT.HitNVM + prop.AMAT.Migrations()
		points = append(points, DRAMPoint{
			DRAMFraction: fractions[i],
			Run:          run,
			PowerVsDRAM:  prop.APPR.Total() / dram.APPR.Total(),
			AMATVsDWF:    propAMAT / dwfAMAT,
		})
	}
	return points, nil
}

// PageFactorPoint is one access-granularity configuration (Section II: the
// PageFactor coefficient converts page moves into memory accesses).
type PageFactorPoint struct {
	Geometry    memspec.Geometry
	PageFactor  int
	Run         *WorkloadRun
	PowerVsDRAM float64
	AMATVsDWF   float64
}

// PageFactorSweep re-runs one workload across access granularities.
func PageFactorSweep(name string, cfg Config, geometries []memspec.Geometry) ([]PageFactorPoint, error) {
	if len(geometries) == 0 {
		return nil, fmt.Errorf("experiments: empty PageFactor sweep")
	}
	cfgs := make([]Config, len(geometries))
	for i, g := range geometries {
		c := cfg
		c.Spec.Geometry = g
		if err := c.Spec.Validate(); err != nil {
			return nil, err
		}
		cfgs[i] = c
	}
	runs, err := runPointGrids(name, cfg, cfgs, func(i int) string {
		g := geometries[i]
		return fmt.Sprintf("%s/pf%d-%d/", name, g.PageSizeBytes, g.LineSizeBytes)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: PageFactor sweep: %w", err)
	}
	points := make([]PageFactorPoint, 0, len(geometries))
	for i, run := range runs {
		prop := run.Report(Proposed)
		dwf := run.Report(ClockDWF)
		dram := run.Report(DRAMOnly)
		dwfAMAT := dwf.AMAT.HitDRAM + dwf.AMAT.HitNVM + dwf.AMAT.Migrations()
		propAMAT := prop.AMAT.HitDRAM + prop.AMAT.HitNVM + prop.AMAT.Migrations()
		points = append(points, PageFactorPoint{
			Geometry:    geometries[i],
			PageFactor:  geometries[i].PageFactor(),
			Run:         run,
			PowerVsDRAM: prop.APPR.Total() / dram.APPR.Total(),
			AMATVsDWF:   propAMAT / dwfAMAT,
		})
	}
	return points, nil
}

// runPointGrids executes the standard four-policy grid for every per-point
// configuration of a sweep, sharing one cached trace, and assembles one
// WorkloadRun per point. All points' jobs go to the pool together.
func runPointGrids(name string, cfg Config, cfgs []Config, prefix func(i int) string) ([]*WorkloadRun, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, errUnknownWorkload(name)
	}
	tr := cfg.traces(cfg.traceCache(), spec)
	var jobs []runner.Job
	for i, c := range cfgs {
		jobs = append(jobs, policyJobs(c, tr, prefix(i))...)
	}
	rs, err := cfg.pool().RunJobs(jobs)
	if err != nil {
		return nil, err
	}
	width := len(StandardPolicies())
	runs := make([]*WorkloadRun, len(cfgs))
	for i, c := range cfgs {
		run, err := assembleRun(spec, c, tr, rs[i*width:(i+1)*width])
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	return runs, nil
}

// AdaptiveComparison runs the fixed-threshold and adaptive-threshold
// variants of the proposed scheme on one workload (the paper's future-work
// ablation).
type AdaptiveComparison struct {
	Fixed    *model.Report
	Adaptive *model.Report
	// FinalReadThreshold/FinalWriteThreshold are where the controller
	// settled.
	FinalReadThreshold, FinalWriteThreshold int
}

// CompareAdaptive evaluates both variants. Only the proposed scheme
// differs between them, so the comparison is two jobs on one cached trace.
//
// Claim: the paper's stated future work — thresholds that adapt at run time.
func CompareAdaptive(name string, cfg Config) (*AdaptiveComparison, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, errUnknownWorkload(name)
	}
	tr := cfg.traces(cfg.traceCache(), spec)
	fixedCfg := cfg
	fixedCfg.Adaptive = false
	adaptCfg := cfg
	adaptCfg.Adaptive = true
	jobs := []runner.Job{
		policyJob(Proposed, fixedCfg, tr, name+"/fixed/"),
		policyJob(Proposed, adaptCfg, tr, name+"/adaptive/"),
	}
	rs, err := cfg.pool().RunJobs(jobs)
	if err != nil {
		return nil, fmt.Errorf("experiments: adaptive comparison: %w", err)
	}
	cmp := &AdaptiveComparison{
		Fixed:    rs[0].Report,
		Adaptive: rs[1].Report,
	}
	if a, ok := rs[1].Policy.(*core.Adaptive); ok {
		cmp.FinalReadThreshold, cmp.FinalWriteThreshold = a.Thresholds()
	}
	return cmp, nil
}
