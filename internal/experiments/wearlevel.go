package experiments

import (
	"fmt"

	"hybridmem/internal/mm"
	"hybridmem/internal/model"
	"hybridmem/internal/policy"
	"hybridmem/internal/sim"
	"hybridmem/internal/trace"
	"hybridmem/internal/workload"
)

// WearLevelResult compares NVM wear distribution with and without Start-Gap
// wear leveling under an NVM-only memory (the endurance extension of the
// Section III-C analysis: total writes set average wear, but the *worst*
// frame bounds lifetime unless wear is leveled).
//
// The ablation uses the NVM-only baseline deliberately: under the proposed
// migration scheme, page movement already spreads wear across frames (an
// interesting secondary benefit the comparison quantifies), whereas a
// static placement pins write-hot pages to fixed frames and shows the
// leveler's full effect.
type WearLevelResult struct {
	Workload string
	// Plain and Leveled are the two runs' wear summaries.
	Plain, Leveled mm.WearStats
	// PlainImbalance and LeveledImbalance are max/mean frame wear.
	PlainImbalance, LeveledImbalance float64
	// PlainWorstYears and LeveledWorstYears are the no-leveling and leveled
	// worst-frame lifetime estimates.
	PlainWorstYears, LeveledWorstYears float64
	// GapMoves is the leveler's background page-copy overhead.
	GapMoves int64
}

// WearLevelAblation runs the proposed scheme twice on one workload: once
// with identity wear accounting and once with Start-Gap (period in wear
// events between gap moves).
//
// Claim: Section III-C — fewer NVM writes mean a longer NVM lifetime; the
// study shows how much of the worst-frame lifetime wear levelling recovers.
func WearLevelAblation(name string, cfg Config, period int) (*WearLevelResult, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, errUnknownWorkload(name)
	}
	warm, roi, pages, err := cfg.traces(cfg.traceCache(), spec).Materialize()
	if err != nil {
		return nil, err
	}
	dram, nvm := cfg.Sizing.Partition(pages)

	run := func(level bool) (*sim.Result, policy.Policy, error) {
		pol, err := policy.NewNVMOnly(dram + nvm)
		if err != nil {
			return nil, nil, err
		}
		if level {
			if err := pol.System().EnableWearLeveling(mm.LocNVM, period); err != nil {
				return nil, nil, err
			}
		}
		if _, err := sim.Run(trace.NewSliceSource(warm), pol, cfg.Spec, sim.Options{}); err != nil {
			return nil, nil, err
		}
		res, err := sim.Run(trace.NewSliceSource(roi), pol, cfg.Spec, sim.Options{})
		return res, pol, err
	}

	plain, _, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("experiments: wear ablation (plain): %w", err)
	}
	leveled, lvPol, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("experiments: wear ablation (leveled): %w", err)
	}

	out := &WearLevelResult{
		Workload:         name,
		Plain:            plain.NVMWear,
		Leveled:          leveled.NVMWear,
		PlainImbalance:   model.WearImbalance(plain.NVMWear, plain.NVMPages),
		LeveledImbalance: model.WearImbalance(leveled.NVMWear, leveled.NVMPages+1),
	}
	if e, err := model.EvaluateEndurance(plain, cfg.Spec); err == nil {
		out.PlainWorstYears = e.LifetimeYearsWorstFrame
	}
	if e, err := model.EvaluateEndurance(leveled, cfg.Spec); err == nil {
		out.LeveledWorstYears = e.LifetimeYearsWorstFrame
	}
	out.GapMoves = lvPol.System().GapMoves(mm.LocNVM)
	return out, nil
}
