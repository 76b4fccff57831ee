// Package pagetable is the index behind the offline simulator's queues and
// its physical memory map: a hash table from page number to a small
// non-negative integer (a slab slot, an encoded frame), built for the access
// pattern of a page-replacement simulator — one lookup per memory access,
// most of them hits, on keys that are dense page numbers.
//
// It is open addressing with linear probing over a power-of-two slot array.
// The home slot is the top bits of a multiplicative (Fibonacci) hash, which
// spreads consecutive page numbers evenly and mixes every key bit into the
// index, so keys that differ only in high bits (a tenant tag above the page
// number) do not collide. Deletion shifts the rest of the cluster back over
// the hole instead of leaving a tombstone, so lookups never slow down with
// churn and an empty slot always ends a probe. The table doubles when it
// passes three-quarters full and never shrinks: the structures it serves are
// bounded by a memory's frame count.
//
// Invariants (checked by the model test and the fuzz target):
//   - len(slots) is zero or a power of two, and at least one slot is empty;
//   - every key sits at or cyclically after its home slot, with no empty
//     slot between the two;
//   - n counts the occupied slots.
package pagetable

import "math/bits"

// slot is one table cell; val < 0 marks it empty.
type slot struct {
	key uint64
	val int32
}

const (
	empty   = -1
	minSize = 8
)

// Table maps page numbers to non-negative int32 values. The zero value is
// an empty table ready for use.
type Table struct {
	slots []slot
	n     int
	shift uint // 64 - log2(len(slots))
}

// Len returns the number of keys in the table.
func (t *Table) Len() int { return t.n }

// home returns key's preferred slot.
func (t *Table) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the index of key's slot, or -1.
func (t *Table) find(key uint64) int {
	mask := len(t.slots) - 1
	if mask < 0 {
		return -1
	}
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val < 0 {
			return -1
		}
		if s.key == key {
			return i
		}
	}
}

// Get returns the value mapped to key. It is find with the value read in the
// loop, which keeps the one lookup every simulated access makes small enough
// for the compiler to inline into its caller.
func (t *Table) Get(key uint64) (int32, bool) {
	mask := len(t.slots) - 1
	if mask < 0 {
		return 0, false
	}
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val < 0 {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
	}
}

// Ref returns a pointer to key's value, or nil if key is absent, so a
// caller can update a mapping with the probe that found it. The pointer is
// valid until the next Insert or Delete; the value stored must stay >= 0.
func (t *Table) Ref(key uint64) *int32 {
	i := t.find(key)
	if i < 0 {
		return nil
	}
	return &t.slots[i].val
}

// Insert maps key to val unless key is already present. It returns the value
// now mapped to key and whether the call inserted it. val must be >= 0.
func (t *Table) Insert(key uint64, val int32) (int32, bool) {
	if val < 0 {
		panic("pagetable: negative value")
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.val < 0 {
			*s = slot{key: key, val: val}
			t.n++
			return val, true
		}
		if s.key == key {
			return s.val, false
		}
	}
}

// grow doubles the slot array and reinserts every key.
func (t *Table) grow() {
	old := t.slots
	size := max(minSize, 2*len(old))
	t.slots = make([]slot, size)
	for i := range t.slots {
		t.slots[i].val = empty
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.val < 0 {
			continue
		}
		i := t.home(s.key)
		for t.slots[i].val >= 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Delete removes key and returns the value it mapped to.
func (t *Table) Delete(key uint64) (int32, bool) {
	i := t.find(key)
	if i < 0 {
		return 0, false
	}
	val := t.slots[i].val
	// Backward shift: walk the rest of the cluster and pull back over the
	// hole every entry whose home is not cyclically inside (hole, entry],
	// i.e. whose probe from home would have crossed the hole.
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s.val < 0 {
			break
		}
		if (j-t.home(s.key))&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = slot{val: empty}
	t.n--
	return val, true
}

// Range calls f for every mapping, in no particular order, until f returns
// false. f must not modify the table.
func (t *Table) Range(f func(key uint64, val int32) bool) {
	for _, s := range t.slots {
		if s.val >= 0 && !f(s.key, s.val) {
			return
		}
	}
}
