// Package lru implements the recency list at the heart of both the paper's
// proposed scheme and the single-technology baselines: a doubly-linked LRU
// list with O(1) lookup, plus optional *position windows* ("markers").
//
// A marker watches the top K positions of the list. The proposed scheme
// (Section IV) keeps read/write counters only for pages within the top
// readperc/writeperc fraction of the NVM queue; when a page is pushed across
// that boundary its counter is reset (Algorithm 1, lines 8-9). Markers make
// that O(1) per operation: each marker tracks the boundary node (the K-th
// from the front) and fires a demotion callback exactly when a node crosses
// the boundary outward. Nodes that passively slide *into* a window (because
// another node left) fire nothing, matching the algorithm.
//
// Nodes live in one slab linked by int32 indices, found through a
// pagetable.Table and recycled through a free list, so a full list neither
// allocates per insert nor holds pointers for the collector to trace. A *V
// the list returns points into that slab: it is valid only until the next
// call that inserts into the same list.
package lru

import (
	"errors"
	"fmt"
	"math"

	"hybridmem/internal/pagetable"
)

// DemoteFunc is called when a node is pushed out of a marker's window. The
// value pointer may be mutated (the scheme resets its counters).
type DemoteFunc[V any] func(key uint64, v *V)

// MarkerID identifies a window created by AddMarker.
type MarkerID int

// Windows is a set of marker windows.
type Windows uint8

// Has reports whether marker m's window is in the set.
func (w Windows) Has(m MarkerID) bool { return w&(1<<uint(m)) != 0 }

const (
	// root is the slab slot of the sentinel: nodes[root].next is the front,
	// nodes[root].prev the back, and an empty list links it to itself.
	root = 0
	// onFreeList in a slot's prev marks it as free; its next is the next
	// free slot (root ends the free list).
	onFreeList = -1
)

type node[V any] struct {
	key        uint64
	prev, next int32   // slab indices; prev is toward the front (MRU), next toward the back (LRU)
	inWin      Windows // bit i set => inside marker i's window
	val        V
}

type marker[V any] struct {
	cap      int
	count    int
	boundary int32 // the last (deepest) node inside the window, root if empty
	onDemote DemoteFunc[V]
}

// List is an LRU list from page keys to values. The front is the most
// recently used position. The zero value is not usable; call New.
type List[V any] struct {
	index   pagetable.Table // key -> slab slot
	nodes   []node[V]
	free    int32 // head of the free list, root if empty
	markers []marker[V]
}

// New returns an empty list.
func New[V any]() *List[V] {
	return &List[V]{nodes: make([]node[V], 1)}
}

// AddMarker registers a window over the top `capacity` positions. Markers
// must be added while the list is empty, and at most 8 are supported.
func (l *List[V]) AddMarker(capacity int, onDemote DemoteFunc[V]) (MarkerID, error) {
	if l.Len() != 0 {
		return 0, errors.New("lru: markers must be added to an empty list")
	}
	if capacity < 1 {
		return 0, fmt.Errorf("lru: marker capacity %d < 1", capacity)
	}
	if len(l.markers) == 8 {
		return 0, errors.New("lru: at most 8 markers supported")
	}
	l.markers = append(l.markers, marker[V]{cap: capacity, onDemote: onDemote})
	return MarkerID(len(l.markers) - 1), nil
}

// Len returns the number of nodes in the list.
func (l *List[V]) Len() int { return l.index.Len() }

// Contains reports whether key is present.
func (l *List[V]) Contains(key uint64) bool {
	_, ok := l.index.Get(key)
	return ok
}

// Get returns a pointer to key's value without changing its position.
func (l *List[V]) Get(key uint64) (*V, bool) {
	i, ok := l.index.Get(key)
	if !ok {
		return nil, false
	}
	return &l.nodes[i].val, true
}

// InWindow reports whether key is currently inside marker m's window.
func (l *List[V]) InWindow(key uint64, m MarkerID) bool {
	i, ok := l.index.Get(key)
	return ok && l.nodes[i].inWin.Has(m)
}

// Front returns the most recently used key.
func (l *List[V]) Front() (uint64, bool) {
	if l.Len() == 0 {
		return 0, false
	}
	return l.nodes[l.nodes[root].next].key, true
}

// Back returns the least recently used key.
func (l *List[V]) Back() (uint64, bool) {
	if l.Len() == 0 {
		return 0, false
	}
	return l.nodes[l.nodes[root].prev].key, true
}

func (l *List[V]) linkFront(i int32) {
	front := l.nodes[root].next
	l.nodes[i].prev, l.nodes[i].next = root, front
	l.nodes[front].prev = i
	l.nodes[root].next = i
}

func (l *List[V]) unlink(i int32) {
	prev, next := l.nodes[i].prev, l.nodes[i].next
	l.nodes[prev].next = next
	l.nodes[next].prev = prev
}

// enterFront accounts for node i, just linked at the front from outside
// marker mi's window, entering that window. When the window is full the old
// boundary node is pushed out and the node above it becomes the boundary.
func (l *List[V]) enterFront(mi int, i int32) {
	m := &l.markers[mi]
	bit := Windows(1) << uint(mi)
	l.nodes[i].inWin |= bit
	if m.count < m.cap {
		m.count++
		if m.boundary == root {
			m.boundary = i
		}
		return
	}
	old := &l.nodes[m.boundary]
	m.boundary = old.prev
	old.inWin &^= bit
	if m.onDemote != nil {
		m.onDemote(old.key, &old.val)
	}
}

// PushFront inserts a new key at the MRU position. It is an error if the key
// is already present (use Touch).
func (l *List[V]) PushFront(key uint64, v V) error {
	i, reuse := l.free, l.free != root
	if !reuse {
		if len(l.nodes) > math.MaxInt32 {
			return errors.New("lru: slab full")
		}
		i = int32(len(l.nodes))
	}
	if _, inserted := l.index.Insert(key, i); !inserted {
		return fmt.Errorf("lru: key %d already present", key)
	}
	if reuse {
		l.free = l.nodes[i].next
		l.nodes[i] = node[V]{key: key, val: v}
	} else {
		l.nodes = append(l.nodes, node[V]{key: key, val: v})
	}
	l.linkFront(i)
	for mi := range l.markers {
		l.enterFront(mi, i)
	}
	return nil
}

// Touch moves key to the MRU position and returns a pointer to its value.
func (l *List[V]) Touch(key uint64) (*V, bool) {
	v, _, ok := l.Hit(key)
	return v, ok
}

// Hit is Touch that also reports which windows the node was inside when it
// was hit, before the move to the front put it inside all of them.
func (l *List[V]) Hit(key uint64) (*V, Windows, bool) {
	i, ok := l.index.Get(key)
	if !ok {
		return nil, 0, false
	}
	n := &l.nodes[i]
	was := n.inWin
	if l.nodes[root].next == i { // already front; membership cannot change
		return &n.val, was, true
	}
	oldPrev := n.prev
	l.unlink(i)
	l.linkFront(i)
	for mi := range l.markers {
		if was.Has(MarkerID(mi)) {
			// Moving within the window: membership is unchanged; only the
			// boundary can shift, when the boundary node itself moved.
			if m := &l.markers[mi]; m.boundary == i && m.count > 1 {
				m.boundary = oldPrev
			}
			continue
		}
		// The node jumps from beyond the window to the front.
		l.enterFront(mi, i)
	}
	return &n.val, was, true
}

// removeNode fixes markers, unlinks slot i and puts it on the free list.
func (l *List[V]) removeNode(i int32) V {
	n := &l.nodes[i]
	for mi := range l.markers {
		m := &l.markers[mi]
		bit := Windows(1) << uint(mi)
		if n.inWin&bit == 0 {
			continue
		}
		// Leaving the list is not a demotion: no callback. The first
		// beyond-window node, if any, slides in silently.
		if in := l.nodes[m.boundary].next; in != root {
			l.nodes[in].inWin |= bit
			m.boundary = in
			continue
		}
		m.count--
		if m.boundary == i {
			m.boundary = n.prev // root when the window empties
		}
	}
	l.unlink(i)
	val := n.val
	*n = node[V]{prev: onFreeList, next: l.free}
	l.free = i
	return val
}

// Remove deletes key from any position and returns its value.
func (l *List[V]) Remove(key uint64) (V, bool) {
	i, ok := l.index.Delete(key)
	if !ok {
		var zero V
		return zero, false
	}
	return l.removeNode(i), true
}

// RemoveBack evicts the LRU node and returns its key and value.
func (l *List[V]) RemoveBack() (uint64, V, bool) {
	if l.Len() == 0 {
		var zero V
		return 0, zero, false
	}
	i := l.nodes[root].prev
	key := l.nodes[i].key
	l.index.Delete(key)
	return key, l.removeNode(i), true
}

// Keys returns all keys from front (MRU) to back (LRU). Intended for tests
// and reports; O(n).
func (l *List[V]) Keys() []uint64 {
	keys := make([]uint64, 0, l.Len())
	for i := l.nodes[root].next; i != root; i = l.nodes[i].next {
		keys = append(keys, l.nodes[i].key)
	}
	return keys
}

// WindowKeys returns the keys currently inside marker m's window, front to
// back. O(n); intended for tests.
func (l *List[V]) WindowKeys(m MarkerID) []uint64 {
	var keys []uint64
	for i := l.nodes[root].next; i != root; i = l.nodes[i].next {
		if l.nodes[i].inWin.Has(m) {
			keys = append(keys, l.nodes[i].key)
		}
	}
	return keys
}

// CheckInvariants validates the slab — every slot is the sentinel, linked
// and indexed, or on the free list, and never two of those — then recomputes
// every marker's window from scratch and compares it with the incremental
// state. It returns an error describing the first inconsistency found. Used
// by property tests.
func (l *List[V]) CheckInvariants() error {
	inSlab := func(i int32) bool { return i >= 0 && int(i) < len(l.nodes) }
	linked := make([]bool, len(l.nodes))
	linked[root] = true
	fwd := 0
	for prev, i := int32(root), l.nodes[root].next; i != root; prev, i = i, l.nodes[i].next {
		if !inSlab(i) || linked[i] {
			return fmt.Errorf("lru: list runs into slot %d after %d nodes", i, fwd)
		}
		linked[i] = true
		n := &l.nodes[i]
		if n.prev != prev {
			return fmt.Errorf("lru: node %d has prev slot %d, want %d", n.key, n.prev, prev)
		}
		if got, ok := l.index.Get(n.key); !ok || got != i {
			return fmt.Errorf("lru: node %d linked but not mapped", n.key)
		}
		fwd++
	}
	if fwd != l.Len() {
		return fmt.Errorf("lru: %d linked nodes, %d mapped", fwd, l.Len())
	}
	free := 0
	for i := l.free; i != root; i = l.nodes[i].next {
		if !inSlab(i) || linked[i] {
			return fmt.Errorf("lru: free list runs into slot %d, which is linked or listed twice", i)
		}
		if l.nodes[i].prev != onFreeList {
			return fmt.Errorf("lru: slot %d on the free list is not marked free", i)
		}
		linked[i] = true
		free++
	}
	if 1+fwd+free != len(l.nodes) {
		return fmt.Errorf("lru: %d slots, but %d linked + %d free + sentinel", len(l.nodes), fwd, free)
	}
	for mi := range l.markers {
		m := &l.markers[mi]
		wantCount := min(m.cap, l.Len())
		if m.count != wantCount {
			return fmt.Errorf("lru: marker %d count %d, want %d", mi, m.count, wantCount)
		}
		pos := 0
		lastIn := int32(root)
		for i := l.nodes[root].next; i != root; i = l.nodes[i].next {
			pos++
			in := pos <= m.cap
			if in {
				lastIn = i
			}
			if got := l.nodes[i].inWin.Has(MarkerID(mi)); got != in {
				return fmt.Errorf("lru: marker %d node %d at pos %d: inWin=%v, want %v",
					mi, l.nodes[i].key, pos, got, in)
			}
		}
		if m.boundary != lastIn {
			// The sentinel's key is 0, which is what an empty window reports.
			return fmt.Errorf("lru: marker %d boundary %d, want %d",
				mi, l.nodes[m.boundary].key, l.nodes[lastIn].key)
		}
	}
	return nil
}
