package main

import (
	"hash/fnv"
	"math/rand"

	"hybridmem/internal/trace"
)

const (
	pageBytes = 4096
	// streamLen is each load thread's stream length; the thread replays it
	// circularly.
	streamLen = 1 << 20
	// zipfS and zipfV shape every address stream: rand.NewZipf(s, v).
	zipfS, zipfV = 1.1, 1
)

// stream is one load thread's accesses: page-aligned byte addresses and the
// operation on each.
type stream struct {
	addrs []uint64
	ops   []trace.Op
}

// permutation returns a seeded shuffle of the page numbers [0, footprint),
// so the Zipf-hot low ranks land on pages spread over the engine's shards.
func permutation(footprint int, seed int64) []uint32 {
	perm := make([]uint32, footprint)
	for i := range perm {
		perm[i] = uint32(i)
	}
	rand.New(rand.NewSource(seed)).Shuffle(footprint, func(i, j int) {
		perm[i], perm[j] = perm[j], perm[i]
	})
	return perm
}

// newStream draws n Zipf-ranked accesses over perm's pages for load thread
// w of a run seeded with seed; writeShare of them are writes.
func newStream(perm []uint32, n int, writeShare float64, seed int64, w int) stream {
	rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(perm)-1))
	s := stream{addrs: make([]uint64, n), ops: make([]trace.Op, n)}
	for i := range s.addrs {
		s.addrs[i] = uint64(perm[zipf.Uint64()]) * pageBytes
		if rng.Float64() < writeShare {
			s.ops[i] = trace.OpWrite
		}
	}
	return s
}

// newStreams builds one stream per load thread over a shared permutation.
func newStreams(footprint, n int, writeShare float64, seed int64) ([]stream, []uint32) {
	perm := permutation(footprint, seed)
	out := make([]stream, loadThreads)
	for w := range out {
		out[w] = newStream(perm, n, writeShare, seed, w)
	}
	return out, perm
}

// hash identifies a stream's content; the tests use it to show that the
// seed alone decides the inputs.
func (s stream) hash() uint64 {
	h := fnv.New64a()
	var b [9]byte
	for i, a := range s.addrs {
		for k := 0; k < 8; k++ {
			b[k] = byte(a >> (8 * k))
		}
		b[8] = byte(s.ops[i])
		h.Write(b[:])
	}
	return h.Sum64()
}
