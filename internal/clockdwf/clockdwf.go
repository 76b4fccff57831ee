// Package clockdwf implements the CLOCK-DWF baseline (Lee, Bahn & Noh,
// "CLOCK-DWF: A write-history-aware page replacement algorithm for hybrid
// PCM and DRAM memory architectures", IEEE TC 2013), as characterized in
// Section III of the reproduced paper:
//
//   - Two clock algorithms, one over DRAM and one over NVM.
//   - On a page fault, a write loads the page into DRAM and a read loads it
//     into NVM.
//   - A write hitting a page in NVM immediately migrates that page to DRAM,
//     so NVM never services a write request.
//   - The DRAM clock is write-history aware: it keeps write-dominant pages
//     and preferentially evicts read-dominant pages to NVM.
//
// The reproduced paper's central observation is that this design triggers
// large numbers of non-beneficial page migrations whose cost CLOCK-DWF's own
// evaluation never accounted for; the simulator charges them faithfully.
package clockdwf

import (
	"fmt"

	"hybridmem/internal/clockalg"
	"hybridmem/internal/mm"
	"hybridmem/internal/policy"
	"hybridmem/internal/trace"
)

// Config tunes the write-history mechanism of the DRAM clock.
type Config struct {
	// MaxWriteCredit caps a DRAM page's write-history counter. Each write
	// hit adds one credit (up to the cap); each eviction-scan pass over an
	// unreferenced page spends one credit to survive. Higher values keep
	// write-dominant pages in DRAM longer.
	MaxWriteCredit int
	// MaxScanLaps bounds the DRAM eviction sweep; after this many full laps
	// the page under the hand is evicted regardless of remaining credit.
	MaxScanLaps int
}

// DefaultConfig returns the configuration used in the paper's comparisons.
// MaxScanLaps is MaxWriteCredit+1 so that a sweep can always drain every
// page's credit before the lap bound forces an eviction.
func DefaultConfig() Config {
	return Config{MaxWriteCredit: 3, MaxScanLaps: 4}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.MaxWriteCredit < 0 {
		return fmt.Errorf("clockdwf: MaxWriteCredit %d < 0", c.MaxWriteCredit)
	}
	if c.MaxScanLaps < 1 {
		return fmt.Errorf("clockdwf: MaxScanLaps %d < 1", c.MaxScanLaps)
	}
	return nil
}

// dramPage is the DRAM clock's per-page state.
type dramPage struct {
	writeCredit int
}

// Policy is the CLOCK-DWF hybrid memory manager.
type Policy struct {
	cfg   Config
	dram  *clockalg.Ring[dramPage]
	nvm   *clockalg.Ring[struct{}]
	sys   *mm.System
	moves []policy.Move
}

var _ policy.Policy = (*Policy)(nil)

// New returns a CLOCK-DWF policy over the given zone sizes.
func New(dramFrames, nvmFrames int, cfg Config) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dramFrames < 1 || nvmFrames < 1 {
		return nil, fmt.Errorf("clockdwf: both zones need frames, got %d/%d",
			dramFrames, nvmFrames)
	}
	sys, err := mm.NewSystem(dramFrames, nvmFrames)
	if err != nil {
		return nil, err
	}
	return &Policy{
		cfg:  cfg,
		dram: clockalg.New[dramPage](),
		nvm:  clockalg.New[struct{}](),
		sys:  sys,
	}, nil
}

// Name implements policy.Policy.
func (p *Policy) Name() string { return "clock-dwf" }

// System implements policy.Policy.
func (p *Policy) System() *mm.System { return p.sys }

// keepWriteDominant is the DRAM sweep rule: an unreferenced page survives a
// lap by spending one write credit, so write-dominant pages stay in DRAM and
// read-dominant pages are demoted first.
func keepWriteDominant(_ uint64, v *dramPage) bool {
	if v.writeCredit > 0 {
		v.writeCredit--
		return true
	}
	return false
}

// evictNVMToDisk frees one NVM frame via the NVM clock.
func (p *Policy) evictNVMToDisk() error {
	victim, _, ok := p.nvm.Evict()
	if !ok {
		return fmt.Errorf("clockdwf: NVM ring empty on eviction")
	}
	if err := p.sys.EvictToDisk(victim); err != nil {
		return err
	}
	p.moves = append(p.moves, policy.Move{
		Page: victim, From: mm.LocNVM, To: mm.LocDisk, Reason: policy.ReasonEvict})
	return nil
}

// demoteDRAMVictim frees one DRAM frame, pushing the victim into NVM
// (evicting from NVM to disk first if NVM is full).
func (p *Policy) demoteDRAMVictim(reason policy.Reason) error {
	victim, _, ok := p.dram.EvictFunc(keepWriteDominant, p.cfg.MaxScanLaps)
	if !ok {
		return fmt.Errorf("clockdwf: DRAM ring empty on demotion")
	}
	if p.nvm.Len() == p.sys.Cap(mm.LocNVM) {
		if err := p.evictNVMToDisk(); err != nil {
			return err
		}
	}
	if _, err := p.sys.Migrate(victim, mm.LocNVM); err != nil {
		return err
	}
	if err := p.nvm.Insert(victim, struct{}{}, false); err != nil {
		return err
	}
	p.moves = append(p.moves, policy.Move{
		Page: victim, From: mm.LocDRAM, To: mm.LocNVM, Reason: reason})
	return nil
}

// Access implements policy.Policy.
func (p *Policy) Access(page uint64, op trace.Op) (policy.Result, error) {
	p.moves = p.moves[:0]

	if v, ok := p.dram.Reference(page); ok {
		if op == trace.OpWrite && v.writeCredit < p.cfg.MaxWriteCredit {
			v.writeCredit++
		}
		return policy.Result{ServedFrom: mm.LocDRAM}, nil
	}

	if op == trace.OpRead {
		if _, ok := p.nvm.Reference(page); ok {
			return policy.Result{ServedFrom: mm.LocNVM, Moves: p.moves}, nil
		}
	} else if _, ok := p.nvm.Remove(page); ok {
		// Write hit in NVM: CLOCK-DWF never writes to NVM; migrate the page
		// to DRAM and service the write there.
		if p.dram.Len() == p.sys.Cap(mm.LocDRAM) {
			// Both zones are full: the promotion displaces a DRAM victim
			// into the frame the promoted page vacates (a DMA-buffered
			// exchange, no disk eviction needed).
			victim, _, ok := p.dram.EvictFunc(keepWriteDominant, p.cfg.MaxScanLaps)
			if !ok {
				return policy.Result{}, fmt.Errorf("clockdwf: DRAM ring empty on promotion")
			}
			if err := p.sys.Swap(page, victim); err != nil {
				return policy.Result{}, err
			}
			if err := p.nvm.Insert(victim, struct{}{}, false); err != nil {
				return policy.Result{}, err
			}
			p.moves = append(p.moves,
				policy.Move{Page: page, From: mm.LocNVM, To: mm.LocDRAM, Reason: policy.ReasonPromotion},
				policy.Move{Page: victim, From: mm.LocDRAM, To: mm.LocNVM, Reason: policy.ReasonDemotePromo})
		} else {
			if _, err := p.sys.Migrate(page, mm.LocDRAM); err != nil {
				return policy.Result{}, err
			}
			p.moves = append(p.moves, policy.Move{
				Page: page, From: mm.LocNVM, To: mm.LocDRAM, Reason: policy.ReasonPromotion})
		}
		if err := p.dram.Insert(page, dramPage{writeCredit: 1}, true); err != nil {
			return policy.Result{}, err
		}
		return policy.Result{ServedFrom: mm.LocDRAM, Moves: p.moves}, nil
	}

	// Page fault: writes load into DRAM, reads into NVM (Section III).
	if op == trace.OpWrite {
		if p.dram.Len() == p.sys.Cap(mm.LocDRAM) {
			if err := p.demoteDRAMVictim(policy.ReasonDemoteFault); err != nil {
				return policy.Result{}, err
			}
		}
		if _, err := p.sys.Place(page, mm.LocDRAM); err != nil {
			return policy.Result{}, err
		}
		if err := p.dram.Insert(page, dramPage{writeCredit: 1}, true); err != nil {
			return policy.Result{}, err
		}
		p.moves = append(p.moves, policy.Move{
			Page: page, From: mm.LocDisk, To: mm.LocDRAM, Reason: policy.ReasonFault})
		return policy.Result{ServedFrom: mm.LocDRAM, Fault: true, Moves: p.moves}, nil
	}
	if p.nvm.Len() == p.sys.Cap(mm.LocNVM) {
		if err := p.evictNVMToDisk(); err != nil {
			return policy.Result{}, err
		}
	}
	if _, err := p.sys.Place(page, mm.LocNVM); err != nil {
		return policy.Result{}, err
	}
	if err := p.nvm.Insert(page, struct{}{}, true); err != nil {
		return policy.Result{}, err
	}
	p.moves = append(p.moves, policy.Move{
		Page: page, From: mm.LocDisk, To: mm.LocNVM, Reason: policy.ReasonFault})
	return policy.Result{ServedFrom: mm.LocNVM, Fault: true, Moves: p.moves}, nil
}

// Residents returns the page counts of the two rings (for tests).
func (p *Policy) Residents() (dram, nvm int) { return p.dram.Len(), p.nvm.Len() }

// CheckInvariants cross-validates the clock rings against the physical
// memory map.
func (p *Policy) CheckInvariants() error {
	if err := p.dram.CheckInvariants(); err != nil {
		return err
	}
	if err := p.nvm.CheckInvariants(); err != nil {
		return err
	}
	if err := p.sys.CheckInvariants(); err != nil {
		return err
	}
	if p.dram.Len() != p.sys.Residents(mm.LocDRAM) {
		return fmt.Errorf("clockdwf: DRAM ring %d pages, system %d",
			p.dram.Len(), p.sys.Residents(mm.LocDRAM))
	}
	if p.nvm.Len() != p.sys.Residents(mm.LocNVM) {
		return fmt.Errorf("clockdwf: NVM ring %d pages, system %d",
			p.nvm.Len(), p.sys.Residents(mm.LocNVM))
	}
	for _, k := range p.dram.Keys() {
		if p.sys.Loc(k) != mm.LocDRAM {
			return fmt.Errorf("clockdwf: page %d in DRAM ring but at %s", k, p.sys.Loc(k))
		}
	}
	for _, k := range p.nvm.Keys() {
		if p.sys.Loc(k) != mm.LocNVM {
			return fmt.Errorf("clockdwf: page %d in NVM ring but at %s", k, p.sys.Loc(k))
		}
	}
	return nil
}
