// Package hybridmem is a from-scratch reproduction of "An Operating System
// Level Data Migration Scheme in Hybrid DRAM-NVM Memory Architecture"
// (Salkhordeh & Asadi, DATE 2016): an OS-level page-migration scheme for
// hybrid DRAM-NVM main memories built on two LRU queues with windowed
// read/write counters, evaluated against CLOCK-DWF and single-technology
// baselines with the paper's AMAT, power and endurance models.
//
// This package is the public facade. It exposes:
//
//   - System: a hybrid memory under one of the six management policies
//     exported as PolicyKind constants — Proposed, ProposedAdaptive,
//     ClockDWF, DRAMCache, DRAMOnly and NVMOnly — fed with line-sized
//     accesses and evaluated with the paper's models (a seventh policy,
//     the static-partition ablation, lives in internal/policy and is used
//     only by the architecture experiments);
//   - GenerateWorkload: the twelve synthetic PARSEC-like traces calibrated
//     to the paper's Table III;
//   - the policy kinds and tuning knobs of the proposed scheme.
//
// System is single-threaded: it is the reference implementation the
// evaluation replays traces through. To serve concurrent traffic, use the
// online engine instead — internal/tiered runs Proposed, ProposedAdaptive
// and ClockDWF behind a sharded page table with a background migration
// daemon (cmd/tierd benchmarks it); how far its counts sit from this
// facade's accounting is measured by internal/tiered's fidelity test. The
// online engine is multi-tenant: isolated page namespaces with per-tenant
// DRAM quotas, a shared spill pool, and fair (round-robin) apportioning of
// the migration budget across tenants — the consolidated `mix` study
// served live.
//
// The full evaluation machinery (figure regeneration, sweeps, claims
// extraction) is internal/experiments behind the cmd/hybridsim
// subcommands; see README.md.
//
// Quick start:
//
//	warm, roi, _ := hybridmem.GenerateWorkload("ferret", 0.01, 1)
//	sys, _ := hybridmem.NewSystem(hybridmem.Proposed, hybridmem.SizeFor(len(warm)))
//	sys.Warm(warm)
//	res, _ := sys.Run(roi)
//	fmt.Println(res.AMATNanos, res.PowerNanojoulesPerAccess)
//
// ExampleNewSystem is the same program with its output checked.
package hybridmem

import (
	"fmt"

	"hybridmem/internal/clockdwf"
	"hybridmem/internal/core"
	"hybridmem/internal/dramcache"
	"hybridmem/internal/memspec"
	"hybridmem/internal/model"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// Access is one line-sized memory access.
type Access struct {
	// Addr is the byte address.
	Addr uint64
	// Write distinguishes stores from loads.
	Write bool
	// GapNS is CPU execution time since the previous access, in
	// nanoseconds; it feeds the static-power proration (Eq. 3).
	GapNS uint32
}

// PolicyKind selects the memory-management algorithm.
type PolicyKind string

// The available policies.
const (
	// Proposed is the paper's two-LRU migration scheme (Algorithm 1).
	Proposed PolicyKind = "proposed"
	// ProposedAdaptive adds the adaptive-threshold controller (the paper's
	// stated future work).
	ProposedAdaptive PolicyKind = "proposed-adaptive"
	// ClockDWF is the CLOCK-DWF baseline (Lee, Bahn & Noh, IEEE TC 2013).
	ClockDWF PolicyKind = "clock-dwf"
	// DRAMOnly is a DRAM-only main memory under LRU.
	DRAMOnly PolicyKind = "dram-only"
	// NVMOnly is an NVM-only main memory under LRU.
	NVMOnly PolicyKind = "nvm-only"
	// DRAMCache is the rival architecture of Section III: DRAM as a page
	// cache in front of an NVM main memory.
	DRAMCache PolicyKind = "dram-cache"
)

// Size is the memory provisioning of a System.
type Size struct {
	// DRAMPages and NVMPages are the zone capacities in 4KB frames. The
	// single-technology policies use DRAMPages+NVMPages frames of their
	// one technology.
	DRAMPages, NVMPages int
}

// SizeFor applies the paper's Section V-A rule to a footprint: total memory
// is 75% of the workload's pages, DRAM is 10% of that.
func SizeFor(footprintPages int) Size {
	d, n := memspec.DefaultSizing().Partition(footprintPages)
	return Size{DRAMPages: d, NVMPages: n}
}

// Option tunes a System.
type Option func(*options)

type options struct {
	coreCfg      core.Config
	adaptiveCfg  core.AdaptiveConfig
	dwfCfg       clockdwf.Config
	dramCacheCfg dramcache.Config
	spec         memspec.Spec
}

// WithThresholds sets the proposed scheme's migration thresholds.
func WithThresholds(read, write int) Option {
	return func(o *options) {
		o.coreCfg.ReadThreshold = read
		o.coreCfg.WriteThreshold = write
	}
}

// WithWindows sets the proposed scheme's counter windows as fractions of the
// NVM queue.
func WithWindows(readPerc, writePerc float64) Option {
	return func(o *options) {
		o.coreCfg.ReadPerc = readPerc
		o.coreCfg.WritePerc = writePerc
	}
}

// WithWordAccounting switches to 4B-word access granularity (PageFactor
// 1024), the paper's alternative accounting.
func WithWordAccounting() Option {
	return func(o *options) { o.spec.Geometry = memspec.WordGeometry() }
}

// System is a hybrid main memory under one management policy.
type System struct {
	kind PolicyKind
	pol  policy.Policy
	spec memspec.Spec
}

// NewSystem builds a memory system.
func NewSystem(kind PolicyKind, size Size, opts ...Option) (*System, error) {
	o := options{
		coreCfg:      core.DefaultConfig(),
		adaptiveCfg:  core.DefaultAdaptiveConfig(),
		dwfCfg:       clockdwf.DefaultConfig(),
		dramCacheCfg: dramcache.DefaultConfig(),
		spec:         memspec.Default(),
	}
	for _, opt := range opts {
		opt(&o)
	}
	var (
		pol policy.Policy
		err error
	)
	switch kind {
	case Proposed:
		pol, err = core.New(size.DRAMPages, size.NVMPages, o.coreCfg)
	case ProposedAdaptive:
		pol, err = core.NewAdaptive(size.DRAMPages, size.NVMPages, o.coreCfg, o.adaptiveCfg)
	case ClockDWF:
		pol, err = clockdwf.New(size.DRAMPages, size.NVMPages, o.dwfCfg)
	case DRAMOnly:
		pol, err = policy.NewDRAMOnly(size.DRAMPages + size.NVMPages)
	case NVMOnly:
		pol, err = policy.NewNVMOnly(size.DRAMPages + size.NVMPages)
	case DRAMCache:
		pol, err = dramcache.New(size.DRAMPages, size.NVMPages, o.dramCacheCfg)
	default:
		return nil, fmt.Errorf("hybridmem: unknown policy %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return &System{kind: kind, pol: pol, spec: o.spec}, nil
}

// Kind returns the system's policy.
func (s *System) Kind() PolicyKind { return s.kind }

func toSource(accesses []Access) trace.Source {
	i := 0
	return trace.FuncSource(func() (trace.Record, bool) {
		if i >= len(accesses) {
			return trace.Record{}, false
		}
		a := accesses[i]
		i++
		op := trace.OpRead
		if a.Write {
			op = trace.OpWrite
		}
		return trace.Record{Addr: a.Addr, Op: op, GapNS: a.GapNS}, true
	})
}

// Warm services accesses without keeping statistics (the pre-ROI
// initialization phase).
func (s *System) Warm(accesses []Access) error {
	_, err := sim.Run(toSource(accesses), s.pol, s.spec, sim.Options{})
	return err
}

// Results is the paper-model evaluation of one run.
type Results struct {
	Accesses int64

	// AMATNanos is the Eq. 1 average memory access time. The breakdown
	// fields sum to it.
	AMATNanos          float64
	AMATHitNanos       float64 // DRAM + NVM request servicing
	AMATDiskNanos      float64 // page-fault stalls
	AMATMigrationNanos float64 // page-migration copies

	// PowerNanojoulesPerAccess is the Eq. 2+3 average power per request.
	PowerNanojoulesPerAccess float64
	PowerStatic              float64
	PowerDynamic             float64
	PowerPageFault           float64
	PowerMigration           float64

	// NVM write sources (line granularity) and endurance.
	NVMWriteLines          int64
	NVMWritesFromRequests  int64
	NVMWritesFromFaults    int64
	NVMWritesFromMigration int64
	// LifetimeYears estimates NVM lifetime under ideal wear leveling
	// (0 when the system has no NVM or saw no writes).
	LifetimeYears float64

	// Placement behaviour.
	DRAMHitRatio, NVMHitRatio, FaultRatio float64
	Promotions, Demotions                 int64
}

// Run services accesses and returns the evaluation.
func (s *System) Run(accesses []Access) (*Results, error) {
	res, err := sim.Run(toSource(accesses), s.pol, s.spec, sim.Options{})
	if err != nil {
		return nil, err
	}
	rep, err := model.Evaluate(res, s.spec)
	if err != nil {
		return nil, err
	}
	out := &Results{
		Accesses:                 rep.Accesses,
		AMATNanos:                rep.AMAT.Total(),
		AMATHitNanos:             rep.AMAT.HitDRAM + rep.AMAT.HitNVM,
		AMATDiskNanos:            rep.AMAT.Miss,
		AMATMigrationNanos:       rep.AMAT.Migrations(),
		PowerNanojoulesPerAccess: rep.APPR.Total(),
		PowerStatic:              rep.APPR.Static,
		PowerDynamic:             rep.APPR.Dynamic(),
		PowerPageFault:           rep.APPR.PageFault(),
		PowerMigration:           rep.APPR.Migration(),
		NVMWriteLines:            rep.NVMWrites.Total(),
		NVMWritesFromRequests:    rep.NVMWrites.Requests,
		NVMWritesFromFaults:      rep.NVMWrites.PageFault,
		NVMWritesFromMigration:   rep.NVMWrites.Migration,
		DRAMHitRatio:             rep.Probabilities.PHitDRAM,
		NVMHitRatio:              rep.Probabilities.PHitNVM,
		FaultRatio:               rep.Probabilities.PMiss,
		Promotions:               res.Counts.Promotions,
		Demotions:                res.Counts.Demotions,
	}
	if res.NVMPages > 0 && res.NVMWear.Total > 0 {
		if e, err := model.EvaluateEndurance(res, s.spec); err == nil {
			out.LifetimeYears = e.LifetimeYearsLeveled
		}
	}
	return out, nil
}

// WorkloadNames lists the twelve Table III workloads.
func WorkloadNames() []string { return workload.Names() }

// WorkloadInfo describes one Table III workload.
type WorkloadInfo struct {
	Name          string
	WorkingSetKB  int
	Reads, Writes int64
}

// Workloads returns the Table III characterization of every workload.
func Workloads() []WorkloadInfo {
	specs := workload.PARSEC()
	out := make([]WorkloadInfo, len(specs))
	for i, s := range specs {
		out[i] = WorkloadInfo{
			Name: s.Name, WorkingSetKB: s.WorkingSetKB,
			Reads: s.Reads, Writes: s.Writes,
		}
	}
	return out
}

// GenerateWorkload synthesizes one Table III workload at the given scale
// (1.0 = the paper's full trace sizes). It returns the warmup phase (every
// page touched once; feed it to System.Warm) and the measured ROI stream.
// Streams are deterministic in (name, scale, seed).
func GenerateWorkload(name string, scale float64, seed int64) (warmup, roi []Access, err error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("hybridmem: unknown workload %q (have %v)", name, workload.Names())
	}
	gen, err := workload.NewGenerator(spec, scale, seed)
	if err != nil {
		return nil, nil, err
	}
	conv := func(src trace.Source) []Access {
		var out []Access
		for {
			r, ok := src.Next()
			if !ok {
				return out
			}
			out = append(out, Access{Addr: r.Addr, Write: r.Op == trace.OpWrite, GapNS: r.GapNS})
		}
	}
	return conv(gen.WarmupSource(seed + 1)), conv(gen), nil
}

// FootprintPages returns the number of distinct 4KB pages in a stream.
func FootprintPages(accesses []Access) int {
	pages := make(map[uint64]struct{})
	for _, a := range accesses {
		pages[a.Addr/4096] = struct{}{}
	}
	return len(pages)
}
