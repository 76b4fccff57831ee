// Package sim drives a memory-access trace through a placement policy and
// accounts every event the paper's performance and power models need:
// hit/miss counts per zone and request kind, page movements by reason, CPU
// gap time, simulated wall-clock time, and NVM wear.
//
// The simulator charges time the way Section II-A models it: hits cost the
// zone's read/write latency, page faults cost one disk access (the page copy
// itself overlaps with the DMA transfer), and each migration costs
// PageFactor line reads on the source plus PageFactor line writes on the
// destination. Energy is not accumulated here; package model derives it from
// the counts via Eq. 2, and tests verify the two views agree by identity.
package sim

import (
	"fmt"
	"math/bits"

	"hybridmem/internal/memspec"
	"hybridmem/internal/mm"
	"hybridmem/internal/policy"
	"hybridmem/internal/trace"
)

// Counts is the raw event tally of one simulation run.
type Counts struct {
	// Accesses is the total number of trace records serviced.
	Accesses int64
	// ReadsDRAM/WritesDRAM/ReadsNVM/WritesNVM count *hit* accesses serviced
	// by each zone. Faulting accesses are counted separately.
	ReadsDRAM, WritesDRAM int64
	ReadsNVM, WritesNVM   int64
	// Faults counts page faults; FaultsToDRAM/FaultsToNVM split them by the
	// zone the page was loaded into.
	Faults                    int64
	FaultsToDRAM, FaultsToNVM int64
	// Promotions counts NVM->DRAM page migrations (the model's PMigD
	// numerator); Demotions counts DRAM->NVM migrations (PMigN), split by
	// what forced them.
	Promotions     int64
	Demotions      int64
	DemotionsFault int64
	DemotionsPromo int64
	// EvictionsDRAM/EvictionsNVM count memory->disk evictions by source.
	EvictionsDRAM, EvictionsNVM int64
	// DemotionsClean counts free DRAM->NVM moves: clean cache-copy
	// invalidations where the NVM backing copy is still valid (the
	// DRAM-as-cache baseline). They cost no time, energy or wear and are
	// excluded from Demotions.
	DemotionsClean int64
	// TotalGapNS accumulates the trace's CPU execution gaps.
	TotalGapNS float64
}

// Hits returns the number of non-faulting accesses.
func (c Counts) Hits() int64 {
	return c.ReadsDRAM + c.WritesDRAM + c.ReadsNVM + c.WritesNVM
}

// HitsDRAM returns hits serviced by DRAM.
func (c Counts) HitsDRAM() int64 { return c.ReadsDRAM + c.WritesDRAM }

// HitsNVM returns hits serviced by NVM.
func (c Counts) HitsNVM() int64 { return c.ReadsNVM + c.WritesNVM }

// Result is the outcome of one simulation run.
type Result struct {
	Policy string
	Counts Counts
	// ServiceNS is the total memory service time: hit latencies, disk
	// stalls and migration copies. AMAT (Eq. 1) equals ServiceNS/Accesses.
	ServiceNS float64
	// RuntimeNS is the simulated wall-clock time: CPU gaps plus ServiceNS.
	// Eq. 3 prorates static power over it.
	RuntimeNS float64
	// NVMWear is the per-frame wear summary at the end of the run.
	NVMWear mm.WearStats
	// Samples holds the periodic snapshots requested via
	// Options.SampleEvery (nil when sampling is off).
	Samples []Sample
	// DRAMPages/NVMPages record the simulated memory provisioning, for the
	// static power term.
	DRAMPages, NVMPages int
}

// Options control optional validation and sampling during a run.
type Options struct {
	// CheckEvery runs the policy's physical-memory invariant checks every N
	// accesses (0 disables them; they are O(resident pages)).
	CheckEvery int
	// Shadow maintains an independent page-location map and validates every
	// reported move against it, and checks the frame a policy reports for an
	// NVM write hit against the physical map as it stood before the access.
	// Used by integration tests.
	Shadow bool
	// SampleEvery records a cumulative counter snapshot every N accesses
	// (0 disables sampling). Samples expose behaviour over time, e.g. the
	// adaptive controller's convergence.
	SampleEvery int
}

// Sample is a cumulative counter snapshot taken mid-run.
type Sample struct {
	Accesses   int64
	HitsDRAM   int64
	Promotions int64
	Demotions  int64
	Faults     int64
}

// invariantChecker is implemented by policies that can self-validate.
type invariantChecker interface{ CheckInvariants() error }

// Run services every record of src with p and returns the accounting.
func Run(src trace.Source, p policy.Policy, spec memspec.Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pf := float64(spec.Geometry.PageFactor())
	pfLines := uint64(spec.Geometry.PageFactor())
	// Pages are a shift away when the page size is a power of two (Validate
	// has checked it is positive); any other geometry divides.
	pageSize := uint64(spec.Geometry.PageSizeBytes)
	pageShift := -1
	if pageSize&(pageSize-1) == 0 {
		pageShift = bits.TrailingZeros64(pageSize)
	}
	sys := p.System()
	res := &Result{
		Policy:    p.Name(),
		DRAMPages: sys.Cap(mm.LocDRAM),
		NVMPages:  sys.Cap(mm.LocNVM),
	}
	c := &res.Counts

	promoteNS := pf * (spec.NVM.ReadLatencyNS + spec.DRAM.WriteLatencyNS)
	demoteNS := pf * (spec.DRAM.ReadLatencyNS + spec.NVM.WriteLatencyNS)

	var shadow map[uint64]mm.Location
	if opts.Shadow {
		shadow = make(map[uint64]mm.Location)
	}

	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		var page uint64
		if pageShift >= 0 {
			page = rec.Addr >> pageShift
		} else {
			page = rec.Addr / pageSize
		}
		// A write hit in NVM wears the frame the page occupied when the
		// write was serviced; the access may go on to trigger the page's own
		// migration, so the policy reports that frame (Result.Frame). Only a
		// shadowed run looks it up independently, before the policy runs.
		var preFrame mm.Frame
		if shadow != nil && rec.Op == trace.OpWrite {
			preFrame, _ = sys.FrameOf(page)
		}
		r, err := p.Access(page, rec.Op)
		if err != nil {
			return nil, fmt.Errorf("sim: access %d: %w", c.Accesses, err)
		}
		c.Accesses++
		c.TotalGapNS += float64(rec.GapNS)

		if r.Fault {
			c.Faults++
			res.ServiceNS += spec.Disk.AccessLatencyNS
			switch r.ServedFrom {
			case mm.LocDRAM:
				c.FaultsToDRAM++
			case mm.LocNVM:
				c.FaultsToNVM++
			default:
				return nil, fmt.Errorf("sim: fault served from %v", r.ServedFrom)
			}
		} else {
			switch {
			case r.ServedFrom == mm.LocDRAM && rec.Op == trace.OpRead:
				c.ReadsDRAM++
				res.ServiceNS += spec.DRAM.ReadLatencyNS
			case r.ServedFrom == mm.LocDRAM:
				c.WritesDRAM++
				res.ServiceNS += spec.DRAM.WriteLatencyNS
			case r.ServedFrom == mm.LocNVM && rec.Op == trace.OpRead:
				c.ReadsNVM++
				res.ServiceNS += spec.NVM.ReadLatencyNS
			case r.ServedFrom == mm.LocNVM:
				c.WritesNVM++
				res.ServiceNS += spec.NVM.WriteLatencyNS
				// A write serviced in NVM wears by one line the frame the
				// page occupied at service time (it may have migrated away
				// within this very access).
				at := mm.Frame{Zone: mm.LocNVM, Index: int(r.Frame)}
				if shadow != nil && preFrame != at {
					return nil, fmt.Errorf("sim: NVM write hit on page %d reported at %v, was at %v", page, at, preFrame)
				}
				if err := sys.AddWearFrame(at, 1); err != nil {
					return nil, fmt.Errorf("sim: %w", err)
				}
			default:
				return nil, fmt.Errorf("sim: hit served from %v", r.ServedFrom)
			}
		}

		for _, m := range r.Moves {
			if shadow != nil {
				if got := shadow[m.Page]; got != m.From {
					return nil, fmt.Errorf("sim: move %+v but shadow says page at %s", m, got)
				}
				shadow[m.Page] = m.To
			}
			switch {
			case m.From == mm.LocNVM && m.To == mm.LocDRAM:
				c.Promotions++
				res.ServiceNS += promoteNS
			case m.From == mm.LocDRAM && m.To == mm.LocNVM && m.Reason == policy.ReasonDemoteClean:
				// A clean cache invalidation: the NVM copy is already
				// up to date, nothing is transferred.
				c.DemotionsClean++
			case m.From == mm.LocDRAM && m.To == mm.LocNVM:
				c.Demotions++
				if m.Reason == policy.ReasonDemoteFault {
					// The eviction copy a fault forces overlaps the 5 ms
					// disk transfer (the paper's DMA-overlap argument for
					// fault-path page writes, Section II-A), so it costs
					// energy and wear but no additional stall time.
					c.DemotionsFault++
				} else {
					c.DemotionsPromo++
					res.ServiceNS += demoteNS
				}
				if err := sys.AddWear(m.Page, pfLines); err != nil {
					return nil, fmt.Errorf("sim: %w", err)
				}
			case m.From == mm.LocDisk && m.To == mm.LocNVM:
				// Page-fault load: PageFactor line writes into NVM. The
				// copy overlaps the disk transfer, so no extra time.
				if err := sys.AddWear(m.Page, pfLines); err != nil {
					return nil, fmt.Errorf("sim: %w", err)
				}
			case m.From == mm.LocDisk && m.To == mm.LocDRAM:
				// Page-fault load into DRAM: energy accounted by Eq. 2,
				// no wear tracking for DRAM.
			case m.To == mm.LocDisk && m.From == mm.LocDRAM:
				c.EvictionsDRAM++
			case m.To == mm.LocDisk && m.From == mm.LocNVM:
				c.EvictionsNVM++
			default:
				return nil, fmt.Errorf("sim: unexpected move %+v", m)
			}
		}

		if opts.SampleEvery > 0 && c.Accesses%int64(opts.SampleEvery) == 0 {
			res.Samples = append(res.Samples, Sample{
				Accesses:   c.Accesses,
				HitsDRAM:   c.HitsDRAM(),
				Promotions: c.Promotions,
				Demotions:  c.Demotions,
				Faults:     c.Faults,
			})
		}

		if opts.CheckEvery > 0 && c.Accesses%int64(opts.CheckEvery) == 0 {
			if ic, ok := p.(invariantChecker); ok {
				if err := ic.CheckInvariants(); err != nil {
					return nil, fmt.Errorf("sim: after %d accesses: %w", c.Accesses, err)
				}
			} else if err := sys.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("sim: after %d accesses: %w", c.Accesses, err)
			}
		}
	}

	res.RuntimeNS = res.ServiceNS + c.TotalGapNS
	res.NVMWear = sys.Wear(mm.LocNVM)
	return res, nil
}
