// Package mm is the memory-management substrate the migration policies run
// on: physical frame allocation in two zones (DRAM and NVM), an inverted
// page table tracking where every data page resides (DRAM, NVM or disk), and
// per-frame wear counters for the endurance model.
//
// It mirrors the role of the Linux memory-management layer in the paper's
// simulation framework (Section I: "a framework developed similar to Linux
// memory management layer"): policies decide *which* page moves *where*;
// mm enforces that the moves are physically possible (capacity, exclusive
// residence) and keeps the authoritative residence map that the simulator
// cross-checks against policy behaviour.
//
// The trace's addresses are treated as one flat address space, so a single
// page table stands in for the per-process tables of a real kernel; the
// migration scheme operates on physical pages and is agnostic to this.
package mm

import (
	"errors"
	"fmt"

	"hybridmem/internal/pagetable"
)

// Location says where a data page currently lives.
type Location uint8

// Page locations. LocDisk is both "swapped out" and "never loaded": the
// first access to either costs one disk read (page fault).
const (
	LocDisk Location = iota
	LocDRAM
	LocNVM
)

// String names the location for reports.
func (l Location) String() string {
	switch l {
	case LocDRAM:
		return "DRAM"
	case LocNVM:
		return "NVM"
	default:
		return "disk"
	}
}

// IsMemory reports whether the location is one of the two memory zones.
func (l Location) IsMemory() bool { return l == LocDRAM || l == LocNVM }

// Frame identifies a physical frame: a zone and an index within it.
type Frame struct {
	Zone  Location
	Index int
}

// maxZoneFrames bounds a zone so that a frame packs into one page-table
// value (zone in the low bit, index above it): 2^30 frames, 4 TiB of 4 KiB
// pages.
const maxZoneFrames = 1 << 30

type zone struct {
	capacity int
	free     []int32  // free frame indices (LIFO)
	pageOf   []uint64 // frame index -> resident page, where used says so
	used     []bool   // frame index -> a page resides here
	wear     []uint64 // per-physical-frame line-write counters
	// leveler, when set, remaps logical frame indices to physical ones for
	// wear accounting (Start-Gap wear leveling; the zone gets one spare
	// physical frame, so wear has capacity+1 entries).
	leveler *StartGap
}

func newZone(capacity int) zone {
	z := zone{
		capacity: capacity,
		free:     make([]int32, capacity),
		pageOf:   make([]uint64, capacity),
		used:     make([]bool, capacity),
		wear:     make([]uint64, capacity),
	}
	for i := range z.free {
		// Allocate low indices first: free list is LIFO, so push high first.
		z.free[i] = int32(capacity - 1 - i)
	}
	return z
}

func (z *zone) alloc(page uint64) (int, bool) {
	if len(z.free) == 0 {
		return 0, false
	}
	idx := int(z.free[len(z.free)-1])
	z.free = z.free[:len(z.free)-1]
	z.pageOf[idx], z.used[idx] = page, true
	return idx, true
}

func (z *zone) release(idx int) {
	z.pageOf[idx], z.used[idx] = 0, false
	z.free = append(z.free, int32(idx))
}

// System is the two-zone physical memory with its inverted page table.
type System struct {
	zones [2]zone         // DRAM, NVM
	where pagetable.Table // resident page -> packed Frame
}

// pack and unpack convert a Frame to and from a page-table value.
func pack(f Frame) int32 { return int32(f.Index)<<1 | int32(f.Zone-LocDRAM) }

func unpack(v int32) Frame { return Frame{Zone: LocDRAM + Location(v&1), Index: int(v >> 1)} }

// zone returns the zone at a memory location, nil for any other.
func (s *System) zone(loc Location) *zone {
	if !loc.IsMemory() {
		return nil
	}
	return &s.zones[loc-LocDRAM]
}

// NewSystem creates a memory with the given frame counts. A zone may have
// zero frames (the single-technology baselines size the other zone to the
// full capacity).
func NewSystem(dramFrames, nvmFrames int) (*System, error) {
	if dramFrames < 0 || nvmFrames < 0 {
		return nil, errors.New("mm: negative zone size")
	}
	if dramFrames+nvmFrames == 0 {
		return nil, errors.New("mm: memory needs at least one frame")
	}
	if dramFrames > maxZoneFrames || nvmFrames > maxZoneFrames {
		return nil, fmt.Errorf("mm: zone larger than %d frames", maxZoneFrames)
	}
	return &System{zones: [2]zone{newZone(dramFrames), newZone(nvmFrames)}}, nil
}

// Cap returns the total frame count of a zone.
func (s *System) Cap(loc Location) int {
	if z := s.zone(loc); z != nil {
		return z.capacity
	}
	return 0
}

// Free returns the number of unused frames in a zone.
func (s *System) Free(loc Location) int {
	if z := s.zone(loc); z != nil {
		return len(z.free)
	}
	return 0
}

// Residents returns the number of pages currently in a zone.
func (s *System) Residents(loc Location) int {
	if z := s.zone(loc); z != nil {
		return z.capacity - len(z.free)
	}
	return 0
}

// Loc returns where a page currently lives (LocDisk if not resident).
func (s *System) Loc(page uint64) Location {
	if v, ok := s.where.Get(page); ok {
		return unpack(v).Zone
	}
	return LocDisk
}

// FrameOf returns the frame a page occupies, if resident.
func (s *System) FrameOf(page uint64) (Frame, bool) {
	v, ok := s.where.Get(page)
	if !ok {
		return Frame{}, false
	}
	return unpack(v), true
}

// Place loads a non-resident page into the given zone (the page-fault path).
func (s *System) Place(page uint64, loc Location) (Frame, error) {
	z := s.zone(loc)
	if z == nil {
		return Frame{}, fmt.Errorf("mm: cannot place page %d at %s", page, loc)
	}
	idx, ok := z.alloc(page)
	if !ok {
		return Frame{}, fmt.Errorf("mm: %s zone full (%d frames)", loc, z.capacity)
	}
	f := Frame{Zone: loc, Index: idx}
	if v, inserted := s.where.Insert(page, pack(f)); !inserted {
		z.release(idx)
		return Frame{}, fmt.Errorf("mm: page %d already resident in %s", page, unpack(v).Zone)
	}
	return f, nil
}

// Migrate moves a resident page to the other memory zone.
func (s *System) Migrate(page uint64, to Location) (Frame, error) {
	dst := s.zone(to)
	if dst == nil {
		return Frame{}, fmt.Errorf("mm: cannot migrate page %d to %s", page, to)
	}
	at := s.where.Ref(page)
	if at == nil {
		return Frame{}, fmt.Errorf("mm: page %d not resident", page)
	}
	from := unpack(*at)
	if from.Zone == to {
		return Frame{}, fmt.Errorf("mm: page %d already in %s", page, to)
	}
	idx, free := dst.alloc(page)
	if !free {
		return Frame{}, fmt.Errorf("mm: %s zone full", to)
	}
	s.zone(from.Zone).release(from.Index)
	f := Frame{Zone: to, Index: idx}
	*at = pack(f)
	return f, nil
}

// Swap exchanges the frames of two resident pages in different zones: the
// DMA-buffered page exchange used when a promotion must displace a victim
// and both zones are full.
func (s *System) Swap(a, b uint64) error {
	atA, atB := s.where.Ref(a), s.where.Ref(b)
	if atA == nil || atB == nil {
		return fmt.Errorf("mm: swap needs both pages resident (%d:%v, %d:%v)", a, atA != nil, b, atB != nil)
	}
	fa, fb := unpack(*atA), unpack(*atB)
	if fa.Zone == fb.Zone {
		return fmt.Errorf("mm: swap of %d and %d within %s", a, b, fa.Zone)
	}
	s.zone(fa.Zone).pageOf[fa.Index] = b
	s.zone(fb.Zone).pageOf[fb.Index] = a
	*atA, *atB = *atB, *atA
	return nil
}

// EvictToDisk removes a resident page from memory.
func (s *System) EvictToDisk(page uint64) error {
	v, ok := s.where.Delete(page)
	if !ok {
		return fmt.Errorf("mm: page %d not resident", page)
	}
	f := unpack(v)
	s.zone(f.Zone).release(f.Index)
	return nil
}

// EnableWearLeveling routes the zone's wear accounting through a Start-Gap
// leveler with the given gap-move period (in wear events). The zone gains
// one spare physical frame for the rotating gap. Must be called before any
// wear is recorded.
func (s *System) EnableWearLeveling(loc Location, period int) error {
	z := s.zone(loc)
	if z == nil {
		return fmt.Errorf("mm: no zone at %v", loc)
	}
	if z.leveler != nil {
		return fmt.Errorf("mm: %s wear leveling already enabled", loc)
	}
	for _, w := range z.wear {
		if w != 0 {
			return fmt.Errorf("mm: %s already has wear recorded", loc)
		}
	}
	lv, err := NewStartGap(z.capacity+1, period)
	if err != nil {
		return err
	}
	z.leveler = lv
	z.wear = make([]uint64, z.capacity+1)
	return nil
}

// GapMoves returns the number of Start-Gap rotations a zone's leveler has
// performed (0 without leveling). Each move costs one page copy of
// background overhead.
func (s *System) GapMoves(loc Location) int64 {
	if z := s.zone(loc); z != nil && z.leveler != nil {
		return z.leveler.GapMoves
	}
	return 0
}

// chargeWear lands lineWrites on the physical frame behind a logical index.
func (z *zone) chargeWear(index int, lineWrites uint64) error {
	if z.leveler == nil {
		z.wear[index] += lineWrites
		return nil
	}
	// The gap rotates with write volume, as in the original Start-Gap
	// design where the period counts memory writes. Charging line by line
	// lets a page copy straddle gap moves, mirroring the line-granular
	// behaviour of the original design and avoiding resonance between the
	// page size and the rotation step.
	for i := uint64(0); i < lineWrites; i++ {
		phys, err := z.leveler.Remap(index)
		if err != nil {
			return err
		}
		z.wear[phys]++
		z.leveler.RecordWrites(1)
	}
	return nil
}

// AddWear charges lineWrites line-sized writes to the frame holding page.
// The endurance model uses per-frame wear to estimate NVM lifetime.
func (s *System) AddWear(page uint64, lineWrites uint64) error {
	f, ok := s.FrameOf(page)
	if !ok {
		return fmt.Errorf("mm: wear on non-resident page %d", page)
	}
	return s.zone(f.Zone).chargeWear(f.Index, lineWrites)
}

// AddWearFrame charges lineWrites to a specific frame. Used when the write
// physically happened on a frame the page has since vacated (e.g. a write
// hit that immediately triggered the page's migration).
func (s *System) AddWearFrame(f Frame, lineWrites uint64) error {
	z := s.zone(f.Zone)
	if z == nil {
		return fmt.Errorf("mm: wear on unknown zone %v", f.Zone)
	}
	if f.Index < 0 || f.Index >= z.capacity {
		return fmt.Errorf("mm: wear on out-of-range frame %v", f)
	}
	return z.chargeWear(f.Index, lineWrites)
}

// WearStats summarizes per-frame wear in a zone.
type WearStats struct {
	Total uint64 // line writes summed over all frames
	Max   uint64 // worst single frame
	Used  int    // frames that ever took a write
}

// Wear returns the wear statistics of a zone.
func (s *System) Wear(loc Location) WearStats {
	var ws WearStats
	z := s.zone(loc)
	if z == nil {
		return ws
	}
	for _, w := range z.wear {
		ws.Total += w
		if w > ws.Max {
			ws.Max = w
		}
		if w > 0 {
			ws.Used++
		}
	}
	return ws
}

// CheckInvariants validates exclusive residence and zone accounting: every
// mapped page sits in a frame that is in use and names it back, every frame
// in use is some mapped page's, and every other frame is on its zone's free
// list exactly once.
func (s *System) CheckInvariants() error {
	var mapped [2]int
	var err error
	s.where.Range(func(page uint64, v int32) bool {
		f := unpack(v)
		z := s.zone(f.Zone)
		switch {
		case f.Index >= z.capacity:
			err = fmt.Errorf("mm: page %d claims frame %v of a %d-frame zone", page, f, z.capacity)
		case !z.used[f.Index]:
			err = fmt.Errorf("mm: page %d claims frame %v, which is free", page, f)
		case z.pageOf[f.Index] != page:
			err = fmt.Errorf("mm: page %d claims frame %v, zone says page %d", page, f, z.pageOf[f.Index])
		}
		mapped[f.Zone-LocDRAM]++
		return err == nil
	})
	if err != nil {
		return err
	}
	for i := range s.zones {
		z, loc := &s.zones[i], LocDRAM+Location(i)
		used := 0
		for _, u := range z.used {
			if u {
				used++
			}
		}
		if mapped[i] != used {
			return fmt.Errorf("mm: %s has %d mapped pages but %d frames in use", loc, mapped[i], used)
		}
		if used+len(z.free) != z.capacity {
			return fmt.Errorf("mm: %s frames leaked: %d used + %d free != %d",
				loc, used, len(z.free), z.capacity)
		}
		onFree := make([]bool, z.capacity)
		for _, idx := range z.free {
			if idx < 0 || int(idx) >= z.capacity || z.used[idx] || onFree[idx] {
				return fmt.Errorf("mm: %s free list holds frame %d, which is in use, listed twice or out of range", loc, idx)
			}
			onFree[idx] = true
		}
	}
	return nil
}
