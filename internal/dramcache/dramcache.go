// Package dramcache implements the rival architecture the paper's Section
// III describes: DRAM as a page cache in front of an NVM main memory
// ("a group of previous studies tried to use DRAM as a caching layer for
// NVM" [10,14,15]). All resident pages live in NVM; pages that earn enough
// recent accesses are *copied* into a DRAM cache whose hits are served at
// DRAM speed. Dirty cached pages are written back to NVM on eviction; clean
// copies are simply invalidated, which — unlike the exclusive migration
// architectures — costs nothing.
//
// The paper's criticism of this design is that its benefit collapses when
// request locality drops (the cache stops absorbing traffic while its
// capacity is lost to duplication); the architecture-comparison experiment
// reproduces exactly that trade-off against the proposed migration scheme.
package dramcache

import (
	"fmt"

	"hybridmem/internal/lru"
	"hybridmem/internal/mm"
	"hybridmem/internal/policy"
	"hybridmem/internal/trace"
)

// Config tunes the cache-fill filter.
type Config struct {
	// FillThreshold is the number of NVM accesses a page needs while it
	// stays on the candidate list before it is copied into the DRAM cache.
	// 1 caches on first touch.
	FillThreshold int
	// CandidateFactor sizes the candidate list as a multiple of the cache:
	// a page whose re-reference distance exceeds CandidateFactor*cacheFrames
	// distinct recently-referenced pages falls off the list and its count
	// resets. This is the same recency-window idea as the proposed scheme's
	// counters, and it is what keeps slow sweeps from ever qualifying.
	CandidateFactor int
}

// DefaultConfig returns a filter that requires eight hits within a
// 2x-cache-sized recency window, which keeps scans and slow sweeps out of
// the cache.
func DefaultConfig() Config {
	return Config{FillThreshold: 8, CandidateFactor: 2}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.FillThreshold < 1 {
		return fmt.Errorf("dramcache: FillThreshold %d < 1", c.FillThreshold)
	}
	if c.CandidateFactor < 1 {
		return fmt.Errorf("dramcache: CandidateFactor %d < 1", c.CandidateFactor)
	}
	return nil
}

// cacheEntry is the DRAM cache's per-page state.
type cacheEntry struct {
	dirty bool
}

// Policy is the DRAM-as-cache memory manager.
type Policy struct {
	cfg Config
	// backing orders every resident page (the NVM main memory's LRU),
	// including pages currently cached in DRAM.
	backing *lru.List[struct{}]
	// cache is the DRAM page cache (a subset of backing).
	cache *lru.List[cacheEntry]
	sys   *mm.System
	// candidates is the bounded recency list of fill candidates with their
	// hit counts.
	candidates   *lru.List[int]
	candidateCap int
	moves        []policy.Move
}

var _ policy.Policy = (*Policy)(nil)

// New returns a DRAM-cache policy: dramFrames of cache in front of
// nvmFrames of NVM main memory.
func New(dramFrames, nvmFrames int, cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dramFrames < 1 || nvmFrames < 1 {
		return nil, fmt.Errorf("dramcache: both zones need frames, got %d/%d",
			dramFrames, nvmFrames)
	}
	if dramFrames >= nvmFrames {
		return nil, fmt.Errorf("dramcache: cache (%d) must be smaller than backing NVM (%d)",
			dramFrames, nvmFrames)
	}
	sys, err := mm.NewSystem(dramFrames, nvmFrames)
	if err != nil {
		return nil, err
	}
	return &Policy{
		cfg:          cfg,
		backing:      lru.New[struct{}](),
		cache:        lru.New[cacheEntry](),
		sys:          sys,
		candidates:   lru.New[int](),
		candidateCap: cfg.CandidateFactor * dramFrames,
	}, nil
}

// Name implements policy.Policy.
func (p *Policy) Name() string { return "dram-cache" }

// System implements policy.Policy.
func (p *Policy) System() *mm.System { return p.sys }

// Capacity: the backing NVM holds every resident page, so residency is
// bounded by the NVM frame count; cached pages occupy DRAM frames instead
// of NVM frames in the physical map, which always leaves the NVM zone with
// room for writebacks.
func (p *Policy) nvmCap() int { return p.sys.Cap(mm.LocNVM) }

// dropCache removes a page's DRAM copy. Dirty copies are written back to
// NVM (a costed move); clean copies are invalidated for free.
func (p *Policy) dropCache(page uint64, e cacheEntry) error {
	reason := policy.ReasonDemoteClean
	if e.dirty {
		reason = policy.ReasonDemotePromo
	}
	if _, err := p.sys.Migrate(page, mm.LocNVM); err != nil {
		return err
	}
	p.moves = append(p.moves, policy.Move{
		Page: page, From: mm.LocDRAM, To: mm.LocNVM, Reason: reason})
	return nil
}

// fill copies a page into the DRAM cache, evicting the cache LRU if full.
func (p *Policy) fill(page uint64) error {
	if p.cache.Len() == p.sys.Cap(mm.LocDRAM) {
		victim, e, _ := p.cache.RemoveBack()
		if err := p.dropCache(victim, e); err != nil {
			return err
		}
	}
	if _, err := p.sys.Migrate(page, mm.LocDRAM); err != nil {
		return err
	}
	if err := p.cache.PushFront(page, cacheEntry{}); err != nil {
		return err
	}
	p.moves = append(p.moves, policy.Move{
		Page: page, From: mm.LocNVM, To: mm.LocDRAM, Reason: policy.ReasonPromotion})
	p.candidates.Remove(page)
	return nil
}

// Access implements policy.Policy.
func (p *Policy) Access(page uint64, op trace.Op) (policy.Result, error) {
	p.moves = p.moves[:0]

	if v, ok := p.cache.Touch(page); ok {
		// Cache hit: refresh the backing recency too.
		p.backing.Touch(page)
		if op == trace.OpWrite {
			v.dirty = true
		}
		return policy.Result{ServedFrom: mm.LocDRAM}, nil
	}

	if _, ok := p.backing.Touch(page); ok {
		// NVM hit, serviced by the frame the page sits in now, whether or
		// not the hit goes on to earn it a cache fill.
		at, _ := p.sys.FrameOf(page)
		// Bump the page on the candidate list; pages that fall off the
		// bounded list lose their count, so only pages re-referenced within
		// the recency window can qualify.
		count := 1
		if n, ok := p.candidates.Touch(page); ok {
			*n++
			count = *n
		} else {
			if p.candidates.Len() == p.candidateCap {
				p.candidates.RemoveBack()
			}
			if err := p.candidates.PushFront(page, 1); err != nil {
				return policy.Result{}, err
			}
		}
		if count >= p.cfg.FillThreshold {
			if err := p.fill(page); err != nil {
				return policy.Result{}, err
			}
		}
		return policy.Result{ServedFrom: mm.LocNVM, Moves: p.moves, Frame: int32(at.Index)}, nil
	}

	// Page fault: load into the NVM main memory.
	if p.backing.Len() == p.nvmCap() {
		victim, _, _ := p.backing.RemoveBack()
		// A backing eviction invalidates any cached copy; a dirty copy is
		// flushed to disk with the page (write-behind DMA, uncosted like
		// every disk write in the paper's model).
		from := mm.LocNVM
		if _, cached := p.cache.Remove(victim); cached {
			from = mm.LocDRAM
		}
		if err := p.sys.EvictToDisk(victim); err != nil {
			return policy.Result{}, err
		}
		p.moves = append(p.moves, policy.Move{
			Page: victim, From: from, To: mm.LocDisk, Reason: policy.ReasonEvict})
		p.candidates.Remove(victim)
	}
	if _, err := p.sys.Place(page, mm.LocNVM); err != nil {
		return policy.Result{}, err
	}
	if err := p.backing.PushFront(page, struct{}{}); err != nil {
		return policy.Result{}, err
	}
	p.moves = append(p.moves, policy.Move{
		Page: page, From: mm.LocDisk, To: mm.LocNVM, Reason: policy.ReasonFault})
	return policy.Result{ServedFrom: mm.LocNVM, Fault: true, Moves: p.moves}, nil
}

// Cached returns the number of pages currently in the DRAM cache (tests).
func (p *Policy) Cached() int { return p.cache.Len() }

// Resident returns the number of resident pages (tests).
func (p *Policy) Resident() int { return p.backing.Len() }

// CheckInvariants cross-validates the cache and backing structures against
// the physical map.
func (p *Policy) CheckInvariants() error {
	if err := p.backing.CheckInvariants(); err != nil {
		return err
	}
	if err := p.cache.CheckInvariants(); err != nil {
		return err
	}
	if err := p.sys.CheckInvariants(); err != nil {
		return err
	}
	if p.backing.Len() > p.nvmCap() {
		return fmt.Errorf("dramcache: %d resident pages exceed NVM capacity %d",
			p.backing.Len(), p.nvmCap())
	}
	if got := p.sys.Residents(mm.LocDRAM); got != p.cache.Len() {
		return fmt.Errorf("dramcache: cache %d pages, DRAM zone %d", p.cache.Len(), got)
	}
	for _, k := range p.cache.Keys() {
		if !p.backing.Contains(k) {
			return fmt.Errorf("dramcache: cached page %d missing from backing store", k)
		}
		if p.sys.Loc(k) != mm.LocDRAM {
			return fmt.Errorf("dramcache: cached page %d at %s", k, p.sys.Loc(k))
		}
	}
	return nil
}
