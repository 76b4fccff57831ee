// Package policy defines the interface every hybrid-memory management
// algorithm implements, the page-movement event vocabulary the simulator
// accounts costs from, and the two single-technology baselines the paper
// normalizes against: a DRAM-only and an NVM-only main memory under LRU.
package policy

import (
	"fmt"

	"hybridmem/internal/lru"
	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
)

// Reason classifies why a page moved.
type Reason uint8

// Movement reasons. The figures aggregate them by edge: disk->memory moves
// are page-fault loads, NVM->DRAM moves are promotions (the paper's "NVM to
// DRAM migration", PMigD), DRAM->NVM moves are demotions (PMigN) split by
// what forced them, and memory->disk moves are evictions.
const (
	// ReasonFault is a demand load from disk into a memory zone.
	ReasonFault Reason = iota
	// ReasonPromotion is an NVM->DRAM migration of a hot page.
	ReasonPromotion
	// ReasonDemoteFault is a DRAM->NVM demotion making room for a fault.
	ReasonDemoteFault
	// ReasonDemotePromo is a DRAM->NVM demotion making room for a promotion.
	ReasonDemotePromo
	// ReasonEvict is a memory->disk eviction.
	ReasonEvict
	// ReasonDemoteClean is a free DRAM->NVM "move": a clean DRAM-cache copy
	// is invalidated while the NVM backing copy is still valid, so no data
	// transfer happens (used by the DRAM-as-cache architecture baseline).
	ReasonDemoteClean
)

// String names the reason for reports.
func (r Reason) String() string {
	switch r {
	case ReasonFault:
		return "fault"
	case ReasonPromotion:
		return "promotion"
	case ReasonDemoteFault:
		return "demote-fault"
	case ReasonDemotePromo:
		return "demote-promotion"
	case ReasonEvict:
		return "evict"
	case ReasonDemoteClean:
		return "demote-clean"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Move is one whole-page movement triggered by an access.
type Move struct {
	Page     uint64
	From, To mm.Location
	Reason   Reason
}

// Result reports everything one access caused. The Moves slice is owned by
// the policy and only valid until the next Access call.
type Result struct {
	// ServedFrom is the zone that serviced the request. For a faulting
	// access it is the zone the page was loaded into.
	ServedFrom mm.Location
	// Fault reports that the page was not resident and was loaded from disk.
	Fault bool
	// Frame is, for a hit serviced by NVM, the index of the NVM frame the
	// page occupied when the request was serviced, before any move the
	// access went on to cause. The simulator charges a write hit's wear to
	// it, so it takes no second lookup per access. Unspecified for DRAM hits
	// and faults. (An int32 here keeps Result at four words, which the
	// compiler passes and keeps in registers.)
	Frame int32
	// Moves lists the page movements in the order they happened.
	Moves []Move
}

// Policy is a hybrid-memory page placement and migration algorithm.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Access services one line-sized access to the given data page.
	Access(page uint64, op trace.Op) (Result, error)
	// System exposes the underlying physical memory for invariant checks
	// and wear statistics.
	System() *mm.System
}

// singleZone is the shared implementation of the DRAM-only and NVM-only
// baselines: a plain LRU over one memory zone, evicting to disk.
type singleZone struct {
	name  string
	loc   mm.Location
	list  *lru.List[int32] // page -> the frame index it occupies
	sys   *mm.System
	moves []Move
}

func newSingleZone(name string, loc mm.Location, frames int) (*singleZone, error) {
	if frames < 1 {
		return nil, fmt.Errorf("policy: %s needs at least 1 frame, got %d", name, frames)
	}
	var sys *mm.System
	var err error
	if loc == mm.LocDRAM {
		sys, err = mm.NewSystem(frames, 0)
	} else {
		sys, err = mm.NewSystem(0, frames)
	}
	if err != nil {
		return nil, err
	}
	return &singleZone{name: name, loc: loc, list: lru.New[int32](), sys: sys}, nil
}

// Name implements Policy.
func (p *singleZone) Name() string { return p.name }

// System implements Policy.
func (p *singleZone) System() *mm.System { return p.sys }

// Access implements Policy.
func (p *singleZone) Access(page uint64, op trace.Op) (Result, error) {
	p.moves = p.moves[:0]
	if frame, ok := p.list.Touch(page); ok {
		return Result{ServedFrom: p.loc, Frame: *frame}, nil
	}
	// Page fault. Evict the LRU page if the zone is full.
	if p.list.Len() == p.sys.Cap(p.loc) {
		victim, _, _ := p.list.RemoveBack()
		if err := p.sys.EvictToDisk(victim); err != nil {
			return Result{}, fmt.Errorf("policy %s: %w", p.name, err)
		}
		p.moves = append(p.moves, Move{Page: victim, From: p.loc, To: mm.LocDisk, Reason: ReasonEvict})
	}
	f, err := p.sys.Place(page, p.loc)
	if err != nil {
		return Result{}, fmt.Errorf("policy %s: %w", p.name, err)
	}
	if err := p.list.PushFront(page, int32(f.Index)); err != nil {
		return Result{}, fmt.Errorf("policy %s: %w", p.name, err)
	}
	p.moves = append(p.moves, Move{Page: page, From: mm.LocDisk, To: p.loc, Reason: ReasonFault})
	return Result{ServedFrom: p.loc, Fault: true, Moves: p.moves}, nil
}

// DRAMOnly is the paper's DRAM-only main memory under LRU (the power and
// AMAT normalization baseline).
type DRAMOnly struct{ singleZone }

// NewDRAMOnly returns a DRAM-only LRU memory with the given frame count.
func NewDRAMOnly(frames int) (*DRAMOnly, error) {
	s, err := newSingleZone("dram-only", mm.LocDRAM, frames)
	if err != nil {
		return nil, err
	}
	return &DRAMOnly{singleZone: *s}, nil
}

// NVMOnly is the paper's NVM-only main memory under LRU (the endurance
// normalization baseline).
type NVMOnly struct{ singleZone }

// NewNVMOnly returns an NVM-only LRU memory with the given frame count.
func NewNVMOnly(frames int) (*NVMOnly, error) {
	s, err := newSingleZone("nvm-only", mm.LocNVM, frames)
	if err != nil {
		return nil, err
	}
	return &NVMOnly{singleZone: *s}, nil
}
