package core

import (
	"fmt"

	"hybridmem/internal/mm"
	"hybridmem/internal/policy"
	"hybridmem/internal/trace"
)

// SetThresholds changes the migration thresholds at runtime (used by the
// adaptive extension). Both must be at least 1.
func (s *Scheme) SetThresholds(read, write int) error {
	if read < 1 || write < 1 {
		return fmt.Errorf("core: thresholds %d/%d must be >= 1", read, write)
	}
	s.cfg.ReadThreshold = read
	s.cfg.WriteThreshold = write
	return nil
}

// Thresholds returns the current migration thresholds.
func (s *Scheme) Thresholds() (read, write int) {
	return s.cfg.ReadThreshold, s.cfg.WriteThreshold
}

// AdaptiveConfig tunes the adaptive-threshold controller, the paper's stated
// ongoing work ("using adaptive threshold prediction can further improve the
// efficiency of the proposed scheme", Section V-B).
type AdaptiveConfig struct {
	// EpochLength is the number of accesses between threshold adjustments.
	EpochLength int
	// TargetUtility is the number of DRAM hits a migrated page must earn
	// for its migration to have paid off. The break-even point is roughly
	// the migration cost divided by the per-access saving; with Table IV
	// parameters and PageFactor 64 that is on the order of tens of hits.
	TargetUtility float64
	// MinThreshold and MaxThreshold bound the hill climb.
	MinThreshold, MaxThreshold int
}

// DefaultAdaptiveConfig returns a controller tuned for the Table IV
// parameters.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		EpochLength:   20000,
		TargetUtility: 32,
		MinThreshold:  1,
		MaxThreshold:  64,
	}
}

// Validate reports whether the controller configuration is usable.
func (c AdaptiveConfig) Validate() error {
	if c.EpochLength < 1 {
		return fmt.Errorf("core: EpochLength %d < 1", c.EpochLength)
	}
	if c.TargetUtility <= 0 {
		return fmt.Errorf("core: TargetUtility %v <= 0", c.TargetUtility)
	}
	if c.MinThreshold < 1 || c.MaxThreshold < c.MinThreshold {
		return fmt.Errorf("core: threshold bounds [%d,%d] invalid",
			c.MinThreshold, c.MaxThreshold)
	}
	return nil
}

// Adaptive wraps the proposed scheme with an online threshold controller.
// Each epoch it measures migration utility — DRAM hits earned by pages that
// were promoted — and hill-climbs the thresholds: migrations that do not
// earn their cost back raise the bar, abundant utility lowers it. This
// addresses the raytrace observation in Section V-B, where the fixed
// thresholds are wrong for one workload.
type Adaptive struct {
	inner *Scheme
	cfg   AdaptiveConfig

	// The epoch's accesses so far, and the inner scheme's promotion and
	// promoted-page-hit counts at the epoch's start.
	epochAccesses  int
	basePromotions int64
	baseUseful     int64

	// Adjustments counts threshold changes (for tests and reports).
	Adjustments int
}

var _ policy.Policy = (*Adaptive)(nil)

// NewAdaptive returns the adaptive variant of the proposed scheme.
func NewAdaptive(dramFrames, nvmFrames int, base Config, cfg AdaptiveConfig) (*Adaptive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inner, err := New(dramFrames, nvmFrames, base)
	if err != nil {
		return nil, err
	}
	return &Adaptive{inner: inner, cfg: cfg}, nil
}

// Name implements policy.Policy.
func (a *Adaptive) Name() string { return "proposed-adaptive" }

// System implements policy.Policy.
func (a *Adaptive) System() *mm.System { return a.inner.System() }

// Thresholds returns the controller's current thresholds.
func (a *Adaptive) Thresholds() (read, write int) { return a.inner.Thresholds() }

// Access implements policy.Policy.
func (a *Adaptive) Access(page uint64, op trace.Op) (policy.Result, error) {
	res, err := a.inner.Access(page, op)
	if err != nil {
		return res, err
	}
	a.epochAccesses++
	if a.epochAccesses >= a.cfg.EpochLength {
		a.adapt()
	}
	return res, nil
}

// adapt applies one hill-climbing step at an epoch boundary. The inner
// scheme keeps the two tallies it steers by: promotions, and DRAM hits on
// pages that a promotion brought in and that have not been demoted since —
// the utility those migrations earned.
func (a *Adaptive) adapt() {
	read, write := a.inner.Thresholds()
	newRead, newWrite := read, write
	promotions := a.inner.Migrations - a.basePromotions
	useful := a.inner.promotedHits - a.baseUseful
	switch {
	case promotions == 0:
		// No migrations happened: probe downward so hot pages stuck in NVM
		// get a chance to move.
		newRead, newWrite = read-1, write-1
	default:
		utility := float64(useful) / float64(promotions)
		if utility < a.cfg.TargetUtility {
			// Migrations are not earning their cost: demand more evidence.
			newRead, newWrite = read*2, write*2
		} else if utility >= 2*a.cfg.TargetUtility {
			// Plenty of headroom: migrate more eagerly.
			newRead, newWrite = read-1, write-1
		}
	}
	newRead = clamp(newRead, a.cfg.MinThreshold, a.cfg.MaxThreshold)
	newWrite = clamp(newWrite, a.cfg.MinThreshold, a.cfg.MaxThreshold)
	if newRead != read || newWrite != write {
		// Both bounds are >= 1, so SetThresholds cannot fail.
		if err := a.inner.SetThresholds(newRead, newWrite); err != nil {
			panic(err)
		}
		a.Adjustments++
	}
	a.epochAccesses = 0
	a.basePromotions = a.inner.Migrations
	a.baseUseful = a.inner.promotedHits
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
