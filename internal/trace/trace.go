// Package trace defines the memory-access trace format that connects the
// workload generators and the full-system (COTSon-substitute) pipeline to the
// hybrid-memory simulator, together with binary and text codecs and
// characterization statistics (the raw material of the paper's Table III).
//
// A Record is one main-memory access: one line-sized read or write that
// missed (or was written back from) the CPU cache hierarchy. GapNS carries
// the CPU time spent executing since the previous main-memory access, which
// the timing model uses to prorate static power over wall-clock time (Eq. 3).
package trace

import "errors"

// Op distinguishes reads from writes.
type Op uint8

// The two access kinds.
const (
	OpRead Op = iota
	OpWrite
)

// String returns "R" or "W".
func (o Op) String() string {
	if o == OpWrite {
		return "W"
	}
	return "R"
}

// Record is a single main-memory access.
type Record struct {
	// Addr is the byte address of the access (line-aligned for post-LLC
	// traffic).
	Addr uint64
	// GapNS is CPU execution time since the previous record, in nanoseconds:
	// the time the core spent on instructions and cache hits that did not
	// reach main memory.
	GapNS uint32
	// Op is the access kind.
	Op Op
	// CPU is the issuing core (0-based).
	CPU uint8
}

// Page returns the page number of the access for the given page size.
func (r Record) Page(pageSizeBytes int) uint64 {
	return r.Addr / uint64(pageSizeBytes)
}

// Source is a stream of records. Next returns the next record and true, or a
// zero Record and false when the stream is exhausted. Sources are typically
// deterministic generators; re-creating one with the same seed replays the
// same stream.
type Source interface {
	Next() (Record, bool)
}

// SliceSource streams a materialized record slice.
type SliceSource struct {
	recs []Record
	i    int
}

// NewSliceSource returns a Source over recs.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.i >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.i = 0 }

// ErrTruncated reports that Materialize hit its record limit before the
// source was exhausted.
var ErrTruncated = errors.New("trace: materialize limit reached before end of source")

// AppendAll drains src onto the end of dst and returns the extended slice. A
// caller that knows the stream's length passes a dst with that capacity and
// pays for no growth.
func AppendAll(dst []Record, src Source) []Record {
	for {
		r, ok := src.Next()
		if !ok {
			return dst
		}
		dst = append(dst, r)
	}
}

// Materialize drains src into a slice, up to max records (max <= 0 means
// unlimited). It returns ErrTruncated if the limit cut the stream short.
func Materialize(src Source, max int) ([]Record, error) {
	if max <= 0 {
		return AppendAll(nil, src), nil
	}
	var recs []Record
	for {
		if len(recs) == max {
			if _, ok := src.Next(); ok {
				return recs, ErrTruncated
			}
			return recs, nil
		}
		r, ok := src.Next()
		if !ok {
			return recs, nil
		}
		recs = append(recs, r)
	}
}

// FuncSource adapts a closure to the Source interface.
type FuncSource func() (Record, bool)

// Next implements Source.
func (f FuncSource) Next() (Record, bool) { return f() }

// Concat returns a Source that streams each source in turn.
func Concat(srcs ...Source) Source {
	i := 0
	return FuncSource(func() (Record, bool) {
		for i < len(srcs) {
			if r, ok := srcs[i].Next(); ok {
				return r, true
			}
			i++
		}
		return Record{}, false
	})
}

// Limit returns a Source that stops after n records.
func Limit(src Source, n int) Source {
	seen := 0
	return FuncSource(func() (Record, bool) {
		if seen >= n {
			return Record{}, false
		}
		r, ok := src.Next()
		if ok {
			seen++
		}
		return r, ok
	})
}

// Filter returns a Source yielding only records for which keep returns true.
func Filter(src Source, keep func(Record) bool) Source {
	return FuncSource(func() (Record, bool) {
		for {
			r, ok := src.Next()
			if !ok {
				return Record{}, false
			}
			if keep(r) {
				return r, true
			}
		}
	})
}
