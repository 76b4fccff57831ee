package pagetable

import (
	"math/rand"
	"testing"
)

// The op stream the model test and the fuzz target share: two bytes per
// operation. The first picks put, get or delete; the second picks a key from
// a pool built to collide — three homes of a minimum-size table (the last
// slot among them, so clusters wrap), eight keys each, plus keys that differ
// only above bit 44.
const (
	opPut = iota
	opGet
	opDelete
	numOps
)

// keyPool returns keys whose homes in a minSize table are slots 7, 0 and 3,
// followed by small page numbers tagged in their high bits.
func keyPool() []uint64 {
	probe := Table{shift: 64 - 3}
	var pool []uint64
	for _, home := range []int{minSize - 1, 0, 3} {
		for k, found := uint64(0), 0; found < 8; k++ {
			if probe.home(k) == home {
				pool = append(pool, k)
				found++
			}
		}
	}
	for tag := uint64(0); tag < 8; tag++ {
		pool = append(pool, 5|tag<<44, 1<<51|tag<<60)
	}
	return pool
}

// check compares the table with the model after every step.
func check(t *testing.T, tab *Table, model map[uint64]int32, pool []uint64) {
	t.Helper()
	if tab.Len() != len(model) {
		t.Fatalf("Len %d, model has %d", tab.Len(), len(model))
	}
	for _, k := range pool {
		got, ok := tab.Get(k)
		want, wantOK := model[k]
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("Get(%#x) = %d,%v, model says %d,%v", k, got, ok, want, wantOK)
		}
	}
	seen := 0
	tab.Range(func(k uint64, v int32) bool {
		if model[k] != v {
			t.Fatalf("Range yields %#x=%d, model says %d", k, v, model[k])
		}
		seen++
		return true
	})
	if seen != len(model) {
		t.Fatalf("Range yielded %d mappings, model has %d", seen, len(model))
	}
	checkLayout(t, tab)
}

// checkLayout validates the package invariants on the slot array itself.
func checkLayout(t *testing.T, tab *Table) {
	t.Helper()
	size := len(tab.slots)
	if size == 0 {
		return
	}
	if size&(size-1) != 0 {
		t.Fatalf("%d slots, not a power of two", size)
	}
	occupied := 0
	for i, s := range tab.slots {
		if s.val < 0 {
			continue
		}
		occupied++
		for j := tab.home(s.key); j != i; j = (j + 1) & (size - 1) {
			if tab.slots[j].val < 0 {
				t.Fatalf("key %#x at slot %d: empty slot %d between it and its home", s.key, i, j)
			}
		}
	}
	if occupied != tab.n || occupied >= size {
		t.Fatalf("%d occupied slots of %d, n = %d", occupied, size, tab.n)
	}
}

// apply runs an op stream against a fresh table and a Go map.
func apply(t *testing.T, ops []byte) {
	t.Helper()
	pool := keyPool()
	var tab Table
	model := map[uint64]int32{}
	for i := 0; i+1 < len(ops); i += 2 {
		k := pool[int(ops[i+1])%len(pool)]
		switch ops[i] % numOps {
		case opPut:
			v := int32(i)
			if p := tab.Ref(k); p != nil {
				*p = v
			} else if got, inserted := tab.Insert(k, v); !inserted || got != v {
				t.Fatalf("Insert(%#x) = %d,%v after Ref found nothing", k, got, inserted)
			}
			model[k] = v
		case opGet:
			// A lookup through Insert, which must leave a present key alone.
			want, present := model[k]
			got, inserted := tab.Insert(k, 0)
			if inserted == present || (present && got != want) {
				t.Fatalf("Insert(%#x) = %d,%v, model says %d,%v", k, got, inserted, want, present)
			}
			if inserted {
				tab.Delete(k)
			}
		case opDelete:
			got, ok := tab.Delete(k)
			want, wantOK := model[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("Delete(%#x) = %d,%v, model says %d,%v", k, got, ok, want, wantOK)
			}
			delete(model, k)
		}
		check(t, &tab, model, pool)
	}
}

// seeds are the op streams that break a wrong backward-shift deletion. Pool
// indices 0-7 home at the last slot, 8-15 at slot 0, 16-23 at slot 3, 24-39
// differ only in high bits.
var seeds = map[string][]byte{
	// Three keys homed at the last slot occupy slots 7, 0, 1: the run wraps.
	// Deleting the first must pull the other two back across the wrap.
	"wrap": {opPut, 0, opPut, 1, opPut, 2, opDelete, 0, opGet, 1, opGet, 2},
	// A cluster 0,1,2,3 of slot-0 keys with a slot-3 key displaced to 4:
	// deleting inside the cluster must not strand the displaced key, and
	// must not move it before its own home either.
	"hole":     {opPut, 8, opPut, 9, opPut, 10, opPut, 11, opPut, 16, opDelete, 9, opGet, 16, opGet, 11, opDelete, 8, opGet, 16},
	"reinsert": {opPut, 8, opPut, 9, opDelete, 8, opPut, 8, opGet, 9, opDelete, 9, opPut, 9, opGet, 8},
	// Seven keys make a minimum-size table grow (load 3/4) while one run
	// spans the wrap; every key must survive the rehash.
	"grow":     {opPut, 0, opPut, 1, opPut, 8, opPut, 9, opPut, 2, opPut, 10, opPut, 3, opPut, 11, opDelete, 1, opGet, 11},
	"highbits": {opPut, 24, opPut, 26, opPut, 28, opPut, 25, opPut, 27, opDelete, 26, opGet, 24, opGet, 28, opGet, 27},
}

func TestModelSeeds(t *testing.T) {
	for name, ops := range seeds {
		t.Run(name, func(t *testing.T) { apply(t, ops) })
	}
}

func TestModelRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		ops := make([]byte, 2*400)
		rng.Read(ops)
		apply(t, ops)
	}
}

func FuzzTable(f *testing.F) {
	for _, ops := range seeds {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { apply(t, ops) })
}

func TestZeroValueAndMisses(t *testing.T) {
	var tab Table
	if _, ok := tab.Get(1); ok {
		t.Error("Get on the zero table found a key")
	}
	if tab.Ref(1) != nil {
		t.Error("Ref on the zero table found a key")
	}
	if _, ok := tab.Delete(1); ok {
		t.Error("Delete on the zero table found a key")
	}
	tab.Range(func(uint64, int32) bool { t.Error("Range on the zero table yielded"); return false })
	defer func() {
		if recover() == nil {
			t.Error("Insert of a negative value did not panic")
		}
	}()
	tab.Insert(1, -1)
}

// TestDensePages is the simulator's shape: consecutive page numbers filling
// and churning a table, as an LRU queue over a memory's frames does.
func TestDensePages(t *testing.T) {
	var tab Table
	const n = 10000
	for k := uint64(0); k < n; k++ {
		tab.Insert(k, int32(k))
	}
	for k := uint64(0); k < n; k += 2 {
		if v, ok := tab.Delete(k); !ok || v != int32(k) {
			t.Fatalf("Delete(%d) = %d,%v", k, v, ok)
		}
		tab.Insert(k+n, int32(k))
	}
	for k := uint64(0); k < 2*n; k++ {
		v, ok := tab.Get(k)
		want := k%2 == 1 && k < n || k%2 == 0 && k >= n
		if ok != want || (ok && v != int32(k%n)) {
			t.Fatalf("Get(%d) = %d,%v, want present=%v", k, v, ok, want)
		}
	}
	checkLayout(t, &tab)
}
