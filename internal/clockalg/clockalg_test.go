package clockalg

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestEmptyRing(t *testing.T) {
	r := New[int]()
	if r.Len() != 0 {
		t.Error("new ring not empty")
	}
	if _, _, ok := r.Evict(); ok {
		t.Error("Evict on empty returned ok")
	}
	if _, ok := r.Remove(1); ok {
		t.Error("Remove on empty returned ok")
	}
	if _, ok := r.Reference(1); ok {
		t.Error("Reference on empty returned ok")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertAndDuplicate(t *testing.T) {
	r := New[int]()
	if err := r.Insert(1, 10, false); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(1, 11, false); err == nil {
		t.Error("duplicate insert should error")
	}
	if v, ok := r.Get(1); !ok || *v != 10 {
		t.Errorf("Get = %v, %v", v, ok)
	}
}

func TestSecondChanceOrder(t *testing.T) {
	r := New[int]()
	// Insert 1, 2, 3 with no reference bits: FIFO eviction order.
	for i := uint64(1); i <= 3; i++ {
		r.Insert(i, 0, false)
	}
	if got := r.Keys(); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Fatalf("keys = %v, want [1 2 3]", got)
	}
	k, _, _ := r.Evict()
	if k != 1 {
		t.Errorf("first eviction = %d, want 1", k)
	}
	// Reference 2: it survives one lap, so 3 goes next.
	r.Reference(2)
	k, _, _ = r.Evict()
	if k != 3 {
		t.Errorf("second eviction = %d, want 3", k)
	}
	k, _, _ = r.Evict()
	if k != 2 {
		t.Errorf("third eviction = %d, want 2", k)
	}
	if r.Len() != 0 {
		t.Errorf("ring not empty: %d", r.Len())
	}
}

func TestInsertWithRefGetsSecondChance(t *testing.T) {
	r := New[int]()
	r.Insert(1, 0, true)
	r.Insert(2, 0, false)
	// Hand at 1 (ref) -> cleared, skip; 2 (no ref) -> evicted.
	k, _, _ := r.Evict()
	if k != 2 {
		t.Errorf("evicted %d, want 2", k)
	}
	k, _, _ = r.Evict()
	if k != 1 {
		t.Errorf("evicted %d, want 1", k)
	}
}

func TestEvictFuncKeepRule(t *testing.T) {
	r := New[int]()
	// Values act as write-history counters; keep decrements them.
	r.Insert(1, 2, false)
	r.Insert(2, 0, false)
	r.Insert(3, 1, false)
	keep := func(_ uint64, v *int) bool {
		if *v > 0 {
			*v--
			return true
		}
		return false
	}
	// Sweep: 1 has credit 2 -> keep (1 left), 2 has 0 -> evict.
	k, _, ok := r.EvictFunc(keep, 4)
	if !ok || k != 2 {
		t.Errorf("evicted %d, want 2", k)
	}
	if v, _ := r.Get(1); *v != 1 {
		t.Errorf("credit of 1 = %d, want 1", *v)
	}
	// Next sweep: 3 has 1 -> keep (0), 1 has 1 -> keep (0), 3 -> evict.
	k, _, ok = r.EvictFunc(keep, 4)
	if !ok || k != 3 {
		t.Errorf("evicted %d, want 3", k)
	}
}

func TestEvictFuncLapBound(t *testing.T) {
	r := New[int]()
	for i := uint64(1); i <= 3; i++ {
		r.Insert(i, 0, true)
	}
	// A keep function that never yields: the lap bound must force eviction.
	alwaysKeep := func(_ uint64, _ *int) bool { return true }
	if _, _, ok := r.EvictFunc(alwaysKeep, 2); !ok {
		t.Fatal("lap-bounded sweep failed to evict")
	}
	if r.Len() != 2 {
		t.Errorf("len = %d, want 2", r.Len())
	}
}

func TestRemoveMovesHand(t *testing.T) {
	r := New[int]()
	for i := uint64(1); i <= 3; i++ {
		r.Insert(i, int(i), false)
	}
	// Hand is at 1; removing it moves the hand to 2.
	v, ok := r.Remove(1)
	if !ok || v != 1 {
		t.Fatalf("Remove = %v, %v", v, ok)
	}
	if got := r.Keys(); !reflect.DeepEqual(got, []uint64{2, 3}) {
		t.Errorf("keys = %v, want [2 3]", got)
	}
	r.Remove(3)
	r.Remove(2)
	if r.Len() != 0 {
		t.Error("ring should be empty")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSingleNodeEvictWithRef(t *testing.T) {
	r := New[int]()
	r.Insert(1, 0, true)
	k, _, ok := r.Evict()
	if !ok || k != 1 {
		t.Errorf("Evict = %d, %v; want 1, true", k, ok)
	}
}

func TestRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	r := New[int]()
	live := map[uint64]bool{}
	nextKey := uint64(1)
	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			r.Insert(nextKey, step, rng.Intn(2) == 0)
			live[nextKey] = true
			nextKey++
		case op < 6:
			if len(live) > 0 {
				k := anyKey(rng, live)
				if _, ok := r.Reference(k); !ok {
					t.Fatalf("step %d: Reference(%d) missed", step, k)
				}
			}
		case op < 8:
			if len(live) > 0 {
				k := anyKey(rng, live)
				if _, ok := r.Remove(k); !ok {
					t.Fatalf("step %d: Remove(%d) missed", step, k)
				}
				delete(live, k)
			}
		default:
			if k, _, ok := r.Evict(); ok {
				if !live[k] {
					t.Fatalf("step %d: evicted dead key %d", step, k)
				}
				delete(live, k)
			} else if len(live) != 0 {
				t.Fatalf("step %d: Evict failed with %d live", step, len(live))
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if r.Len() != len(live) {
			t.Fatalf("step %d: len %d, want %d", step, r.Len(), len(live))
		}
	}
}

func anyKey(rng *rand.Rand, m map[uint64]bool) uint64 {
	i := rng.Intn(len(m))
	for k := range m {
		if i == 0 {
			return k
		}
		i--
	}
	panic("unreachable")
}

// TestCheckInvariantsCatchesSlabCorruption: a slab slot is on the ring or on
// the free list, never both and never neither.
func TestCheckInvariantsCatchesSlabCorruption(t *testing.T) {
	build := func(t *testing.T) *Ring[int] {
		r := New[int]()
		for k := uint64(1); k <= 4; k++ {
			if err := r.Insert(k, int(k), false); err != nil {
				t.Fatal(err)
			}
		}
		r.Remove(2) // one slot on the free list
		if err := r.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	for name, corrupt := range map[string]func(r *Ring[int]){
		"linked slot also on the free list": func(r *Ring[int]) {
			r.nodes[r.free].next = r.hand
		},
		"linked slot is the free head": func(r *Ring[int]) {
			r.free = r.hand
		},
		"free slot linked into the ring": func(r *Ring[int]) {
			r.nodes[r.hand].next = r.free
		},
		"slot neither linked nor free": func(r *Ring[int]) {
			r.free = none
		},
		"free slot not marked": func(r *Ring[int]) {
			r.nodes[r.free].prev = none
		},
	} {
		t.Run(name, func(t *testing.T) {
			r := build(t)
			corrupt(r)
			if err := r.CheckInvariants(); err == nil {
				t.Error("CheckInvariants accepted the corrupted ring")
			}
		})
	}
}
