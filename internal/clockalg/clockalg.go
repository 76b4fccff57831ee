// Package clockalg implements the CLOCK (second-chance) page ring used by the
// CLOCK-DWF baseline (Lee, Bahn & Noh, IEEE TC 2013).
//
// Pages sit on a circular list with per-page reference bits. A clock hand
// sweeps the ring on eviction: referenced pages lose their bit and survive
// the lap; the first page failing the policy's keep test is the victim.
// Beyond the classic algorithm, EvictFunc lets a policy inject extra survival
// rules (CLOCK-DWF keeps write-dominant pages in DRAM this way).
//
// Like package lru, the ring keeps its nodes in one slab linked by int32
// indices, found through a pagetable.Table and recycled through a free list;
// a *V the ring returns is valid only until the next Insert.
package clockalg

import (
	"errors"
	"fmt"
	"math"

	"hybridmem/internal/pagetable"
)

const (
	// none is the hand of an empty ring and the end of the free list.
	none = -1
	// onFreeList in a slot's prev marks it as free; its next is the next
	// free slot.
	onFreeList = -2
)

type node[V any] struct {
	key        uint64
	prev, next int32 // slab indices
	ref        bool
	val        V
}

// Ring is a clock of pages keyed by page number. The zero value is not
// usable; call New.
type Ring[V any] struct {
	index pagetable.Table // key -> slab slot
	nodes []node[V]
	hand  int32 // none if the ring is empty
	free  int32 // head of the free list, none if empty
}

// New returns an empty ring.
func New[V any]() *Ring[V] {
	return &Ring[V]{hand: none, free: none}
}

// Len returns the number of pages in the ring.
func (r *Ring[V]) Len() int { return r.index.Len() }

// Contains reports whether key is present.
func (r *Ring[V]) Contains(key uint64) bool {
	_, ok := r.index.Get(key)
	return ok
}

// Get returns a pointer to key's value without touching its reference bit.
func (r *Ring[V]) Get(key uint64) (*V, bool) {
	i, ok := r.index.Get(key)
	if !ok {
		return nil, false
	}
	return &r.nodes[i].val, true
}

// Reference sets key's reference bit (a page hit) and returns a pointer to
// its value.
func (r *Ring[V]) Reference(key uint64) (*V, bool) {
	i, ok := r.index.Get(key)
	if !ok {
		return nil, false
	}
	r.nodes[i].ref = true
	return &r.nodes[i].val, true
}

// Ref reports the current reference bit of key.
func (r *Ring[V]) Ref(key uint64) bool {
	i, ok := r.index.Get(key)
	return ok && r.nodes[i].ref
}

// Insert adds a new page just behind the hand (the position the hand will
// reach last), with the given initial reference bit. It is an error if the
// key is already present.
func (r *Ring[V]) Insert(key uint64, v V, ref bool) error {
	i, reuse := r.free, r.free != none
	if !reuse {
		if len(r.nodes) > math.MaxInt32 {
			return errors.New("clockalg: slab full")
		}
		i = int32(len(r.nodes))
	}
	if _, inserted := r.index.Insert(key, i); !inserted {
		return fmt.Errorf("clockalg: key %d already present", key)
	}
	if reuse {
		r.free = r.nodes[i].next
	} else {
		r.nodes = append(r.nodes, node[V]{})
	}
	n := &r.nodes[i]
	*n = node[V]{key: key, val: v, ref: ref}
	if r.hand == none {
		n.prev, n.next = i, i
		r.hand = i
		return nil
	}
	// Insert before the hand: hand.prev <-> n <-> hand.
	n.prev, n.next = r.nodes[r.hand].prev, r.hand
	r.nodes[n.prev].next = i
	r.nodes[n.next].prev = i
	return nil
}

// unlink takes slot i, already deleted from the index, out of the ring and
// frees it.
func (r *Ring[V]) unlink(i int32) {
	n := &r.nodes[i]
	if n.next == i { // last node
		r.hand = none
	} else {
		r.nodes[n.prev].next = n.next
		r.nodes[n.next].prev = n.prev
		if r.hand == i {
			r.hand = n.next
		}
	}
	*n = node[V]{prev: onFreeList, next: r.free}
	r.free = i
}

// Remove deletes key from the ring (a migration, not an eviction) and
// returns its value. The hand skips to the next page if it pointed here.
func (r *Ring[V]) Remove(key uint64) (V, bool) {
	i, ok := r.index.Delete(key)
	if !ok {
		var zero V
		return zero, false
	}
	v := r.nodes[i].val
	r.unlink(i)
	return v, true
}

// KeepFunc lets a policy grant extra survival laps to the page under the
// hand (its value may be mutated, e.g. decaying a write-history counter).
// Returning true skips the page this lap.
type KeepFunc[V any] func(key uint64, v *V) bool

// EvictFunc runs the clock sweep and removes the chosen victim:
//
//  1. a page with its reference bit set gets it cleared and survives,
//  2. otherwise, if keep (when non-nil) returns true the page survives,
//  3. otherwise the page is evicted.
//
// After maxLaps full sweeps without a victim (possible only with a keep
// function that never yields), the page under the hand is evicted anyway.
// It returns false only if the ring is empty.
func (r *Ring[V]) EvictFunc(keep KeepFunc[V], maxLaps int) (uint64, V, bool) {
	if r.hand == none {
		var zero V
		return 0, zero, false
	}
	if maxLaps < 1 {
		maxLaps = 1
	}
	limit := r.Len() * maxLaps
	for i := 0; i <= limit; i++ {
		n := &r.nodes[r.hand]
		if n.ref {
			n.ref = false
			r.hand = n.next
			continue
		}
		if i < limit && keep != nil && keep(n.key, &n.val) {
			r.hand = n.next
			continue
		}
		key, v := n.key, n.val
		r.index.Delete(key)
		r.unlink(r.hand)
		return key, v, true
	}
	// Unreachable: the loop always evicts by i == limit.
	panic("clockalg: sweep failed to evict")
}

// Evict runs the classic second-chance sweep (no extra keep rules).
func (r *Ring[V]) Evict() (uint64, V, bool) {
	return r.EvictFunc(nil, 1)
}

// Keys returns the keys in ring order starting at the hand. O(n); for tests.
func (r *Ring[V]) Keys() []uint64 {
	if r.hand == none {
		return nil
	}
	keys := make([]uint64, 0, r.Len())
	for i := r.hand; ; i = r.nodes[i].next {
		keys = append(keys, r.nodes[i].key)
		if r.nodes[i].next == r.hand {
			break
		}
	}
	return keys
}

// CheckInvariants validates the circular links against the index, and that
// every slab slot is either on the ring or on the free list, never both.
func (r *Ring[V]) CheckInvariants() error {
	inSlab := func(i int32) bool { return i >= 0 && int(i) < len(r.nodes) }
	seen := make([]bool, len(r.nodes))
	ring := 0
	if r.hand == none {
		if r.Len() != 0 {
			return fmt.Errorf("clockalg: no hand with %d nodes", r.Len())
		}
	} else {
		for i := r.hand; ; i = r.nodes[i].next {
			if !inSlab(i) || seen[i] {
				return fmt.Errorf("clockalg: ring runs into slot %d after %d nodes", i, ring)
			}
			seen[i] = true
			n := &r.nodes[i]
			if got, ok := r.index.Get(n.key); !ok || got != i {
				return fmt.Errorf("clockalg: node %d linked but not mapped", n.key)
			}
			if !inSlab(n.next) || !inSlab(n.prev) || r.nodes[n.next].prev != i || r.nodes[n.prev].next != i {
				return fmt.Errorf("clockalg: broken links at %d", n.key)
			}
			ring++
			if n.next == r.hand {
				break
			}
		}
	}
	if ring != r.Len() {
		return fmt.Errorf("clockalg: ring has %d nodes, index has %d", ring, r.Len())
	}
	free := 0
	for i := r.free; i != none; i = r.nodes[i].next {
		if !inSlab(i) || seen[i] {
			return fmt.Errorf("clockalg: free list runs into slot %d, which is linked or listed twice", i)
		}
		if r.nodes[i].prev != onFreeList {
			return fmt.Errorf("clockalg: slot %d on the free list is not marked free", i)
		}
		seen[i] = true
		free++
	}
	if ring+free != len(r.nodes) {
		return fmt.Errorf("clockalg: %d slots, but %d linked + %d free", len(r.nodes), ring, free)
	}
	return nil
}
