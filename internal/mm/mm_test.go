package mm

import (
	"math/rand"
	"testing"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(-1, 2); err == nil {
		t.Error("negative DRAM size should error")
	}
	if _, err := NewSystem(0, 0); err == nil {
		t.Error("zero total frames should error")
	}
	s, err := NewSystem(0, 4)
	if err != nil {
		t.Fatalf("NVM-only system: %v", err)
	}
	if s.Cap(LocDRAM) != 0 || s.Cap(LocNVM) != 4 {
		t.Errorf("caps = %d/%d", s.Cap(LocDRAM), s.Cap(LocNVM))
	}
}

func TestLocationString(t *testing.T) {
	if LocDRAM.String() != "DRAM" || LocNVM.String() != "NVM" || LocDisk.String() != "disk" {
		t.Error("location names wrong")
	}
	if LocDisk.IsMemory() || !LocDRAM.IsMemory() || !LocNVM.IsMemory() {
		t.Error("IsMemory wrong")
	}
}

func TestPlaceAndCapacity(t *testing.T) {
	s, _ := NewSystem(2, 1)
	if _, err := s.Place(10, LocDRAM); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(11, LocDRAM); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(12, LocDRAM); err == nil {
		t.Error("placing into a full zone should error")
	}
	if _, err := s.Place(10, LocNVM); err == nil {
		t.Error("placing an already-resident page should error")
	}
	if _, err := s.Place(12, LocDisk); err == nil {
		t.Error("placing to disk should error")
	}
	if s.Free(LocDRAM) != 0 || s.Residents(LocDRAM) != 2 {
		t.Errorf("free/residents = %d/%d", s.Free(LocDRAM), s.Residents(LocDRAM))
	}
	if s.Loc(10) != LocDRAM || s.Loc(99) != LocDisk {
		t.Error("Loc wrong")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrate(t *testing.T) {
	s, _ := NewSystem(1, 1)
	s.Place(1, LocDRAM)
	if _, err := s.Migrate(1, LocNVM); err != nil {
		t.Fatal(err)
	}
	if s.Loc(1) != LocNVM {
		t.Errorf("Loc = %v, want NVM", s.Loc(1))
	}
	if s.Free(LocDRAM) != 1 || s.Free(LocNVM) != 0 {
		t.Error("frame accounting after migration wrong")
	}
	if _, err := s.Migrate(1, LocNVM); err == nil {
		t.Error("migrating to current zone should error")
	}
	if _, err := s.Migrate(2, LocDRAM); err == nil {
		t.Error("migrating non-resident page should error")
	}
	s.Place(2, LocDRAM)
	if _, err := s.Migrate(2, LocNVM); err == nil {
		t.Error("migrating into a full zone should error")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictToDisk(t *testing.T) {
	s, _ := NewSystem(1, 0)
	s.Place(1, LocDRAM)
	if err := s.EvictToDisk(1); err != nil {
		t.Fatal(err)
	}
	if s.Loc(1) != LocDisk {
		t.Error("page should be on disk")
	}
	if err := s.EvictToDisk(1); err == nil {
		t.Error("evicting non-resident page should error")
	}
	// Frame must be reusable.
	if _, err := s.Place(2, LocDRAM); err != nil {
		t.Fatal(err)
	}
}

func TestWear(t *testing.T) {
	s, _ := NewSystem(1, 2)
	s.Place(1, LocNVM)
	s.Place(2, LocNVM)
	if err := s.AddWear(1, 64); err != nil {
		t.Fatal(err)
	}
	s.AddWear(1, 1)
	s.AddWear(2, 10)
	if err := s.AddWear(3, 1); err == nil {
		t.Error("wear on non-resident page should error")
	}
	ws := s.Wear(LocNVM)
	if ws.Total != 75 || ws.Max != 65 || ws.Used != 2 {
		t.Errorf("wear = %+v, want total 75 max 65 used 2", ws)
	}
	if s.Wear(LocDRAM).Total != 0 {
		t.Error("DRAM wear should be zero")
	}
	// Wear sticks to the frame, not the page: after eviction the frame
	// keeps its history.
	s.EvictToDisk(1)
	if got := s.Wear(LocNVM).Total; got != 75 {
		t.Errorf("wear after eviction = %d, want 75", got)
	}
}

func TestFrameReuseLowIndicesFirst(t *testing.T) {
	s, _ := NewSystem(3, 0)
	f1, _ := s.Place(1, LocDRAM)
	f2, _ := s.Place(2, LocDRAM)
	if f1.Index != 0 || f2.Index != 1 {
		t.Errorf("frames = %d,%d; want 0,1", f1.Index, f2.Index)
	}
}

func TestRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, _ := NewSystem(8, 16)
	resident := map[uint64]bool{}
	nextPage := uint64(1)
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			loc := LocDRAM
			if rng.Intn(2) == 0 {
				loc = LocNVM
			}
			if s.Free(loc) > 0 {
				if _, err := s.Place(nextPage, loc); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				resident[nextPage] = true
				nextPage++
			}
		case op < 7:
			if len(resident) > 0 {
				p := anyPage(rng, resident)
				to := LocDRAM
				if s.Loc(p) == LocDRAM {
					to = LocNVM
				}
				if s.Free(to) > 0 {
					if _, err := s.Migrate(p, to); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
		case op < 9:
			if len(resident) > 0 {
				p := anyPage(rng, resident)
				if err := s.EvictToDisk(p); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				delete(resident, p)
			}
		default:
			if len(resident) > 0 {
				if err := s.AddWear(anyPage(rng, resident), uint64(rng.Intn(100))); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got := s.Residents(LocDRAM) + s.Residents(LocNVM); got != len(resident) {
			t.Fatalf("step %d: residents %d, want %d", step, got, len(resident))
		}
	}
}

func anyPage(rng *rand.Rand, m map[uint64]bool) uint64 {
	i := rng.Intn(len(m))
	for k := range m {
		if i == 0 {
			return k
		}
		i--
	}
	panic("unreachable")
}

// TestCheckInvariantsCatchesCorruption corrupts a System the ways a buggy
// mutation could. With frames in slices, "this frame holds no page" is a
// mark that can disagree with the page table, not the absence of a map key.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	build := func(t *testing.T) *System {
		s, err := NewSystem(2, 4)
		if err != nil {
			t.Fatal(err)
		}
		for page, loc := range []Location{LocDRAM, LocNVM, LocNVM} {
			if _, err := s.Place(uint64(page), loc); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	nvm := func(s *System) *zone { return s.zone(LocNVM) }
	for name, corrupt := range map[string]func(s *System){
		"two pages claim one frame": func(s *System) {
			*s.where.Ref(2) = *s.where.Ref(1)
		},
		"mapped frame marked free": func(s *System) {
			f, _ := s.FrameOf(1)
			nvm(s).used[f.Index] = false
		},
		"mapped frame on the free list": func(s *System) {
			f, _ := s.FrameOf(1)
			nvm(s).used[f.Index] = false
			nvm(s).free = append(nvm(s).free, int32(f.Index))
		},
		"used frame no page claims": func(s *System) {
			z := nvm(s)
			idx := z.free[len(z.free)-1]
			z.free = z.free[:len(z.free)-1]
			z.used[idx], z.pageOf[idx] = true, 9
		},
		"frame names another page": func(s *System) {
			f, _ := s.FrameOf(1)
			nvm(s).pageOf[f.Index] = 9
		},
		"frame listed free twice": func(s *System) {
			z := nvm(s)
			z.free[0] = z.free[1]
		},
		"frame leaked": func(s *System) {
			z := nvm(s)
			z.free = z.free[:len(z.free)-1]
		},
	} {
		t.Run(name, func(t *testing.T) {
			s := build(t)
			corrupt(s)
			if err := s.CheckInvariants(); err == nil {
				t.Error("CheckInvariants accepted the corrupted system")
			}
		})
	}
}
