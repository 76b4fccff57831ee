package policy

import (
	"fmt"

	"hybridmem/internal/lru"
	"hybridmem/internal/mm"
	"hybridmem/internal/trace"
)

// StaticPartition is the no-migration hybrid baseline: pages are assigned a
// zone on first touch (DRAM while it has free frames, NVM afterwards) and
// never move between memories. Comparing it against the proposed scheme
// isolates exactly what migration buys — the paper's whole premise is that
// *which* pages sit in DRAM matters, and this baseline gets the same silicon
// without any placement intelligence.
//
// First-touch is ordering-sensitive by nature: whatever faults first owns
// DRAM forever. Under the experiments' warmup (which touches cold archive
// pages first) that pins *cold* data in DRAM — an extreme but honest
// illustration of why static placement fails and migration is needed.
type StaticPartition struct {
	dram  *lru.List[int32] // both queues: page -> the frame index it occupies
	nvm   *lru.List[int32]
	sys   *mm.System
	moves []Move
}

var _ Policy = (*StaticPartition)(nil)

// NewStaticPartition returns a first-touch split hybrid memory.
func NewStaticPartition(dramFrames, nvmFrames int) (*StaticPartition, error) {
	if dramFrames < 1 || nvmFrames < 1 {
		return nil, fmt.Errorf("policy: static partition needs both zones, got %d/%d",
			dramFrames, nvmFrames)
	}
	sys, err := mm.NewSystem(dramFrames, nvmFrames)
	if err != nil {
		return nil, err
	}
	return &StaticPartition{
		dram: lru.New[int32](),
		nvm:  lru.New[int32](),
		sys:  sys,
	}, nil
}

// Name implements Policy.
func (p *StaticPartition) Name() string { return "static-partition" }

// System implements Policy.
func (p *StaticPartition) System() *mm.System { return p.sys }

// Access implements Policy. Hits stay where they are; faults fill DRAM
// first, then NVM, evicting within the chosen zone thereafter (each zone is
// its own LRU domain, like a hard NUMA binding).
func (p *StaticPartition) Access(page uint64, op trace.Op) (Result, error) {
	p.moves = p.moves[:0]
	if _, ok := p.dram.Touch(page); ok {
		return Result{ServedFrom: mm.LocDRAM}, nil
	}
	if frame, ok := p.nvm.Touch(page); ok {
		return Result{ServedFrom: mm.LocNVM, Frame: *frame}, nil
	}
	// First-touch placement: DRAM while it has room, else NVM; once both
	// are full, faults refill the NVM side (the larger, default zone).
	loc := mm.LocDRAM
	list := p.dram
	if p.dram.Len() == p.sys.Cap(mm.LocDRAM) {
		loc = mm.LocNVM
		list = p.nvm
		if p.nvm.Len() == p.sys.Cap(mm.LocNVM) {
			victim, _, _ := p.nvm.RemoveBack()
			if err := p.sys.EvictToDisk(victim); err != nil {
				return Result{}, err
			}
			p.moves = append(p.moves, Move{
				Page: victim, From: mm.LocNVM, To: mm.LocDisk, Reason: ReasonEvict})
		}
	}
	f, err := p.sys.Place(page, loc)
	if err != nil {
		return Result{}, err
	}
	if err := list.PushFront(page, int32(f.Index)); err != nil {
		return Result{}, err
	}
	p.moves = append(p.moves, Move{Page: page, From: mm.LocDisk, To: loc, Reason: ReasonFault})
	return Result{ServedFrom: loc, Fault: true, Moves: p.moves}, nil
}
