package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Parent is an index into the same tracer's spans, -1 for a root; Req
// is shared by the spans of one pipeline, call, chunk or cut.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Parent     int32
	Req        int64
}

// maxSpans caps one run's spans over all its tracers; later spans are
// counted as overflow, not recorded.
const maxSpans = 2 << 20

// tracer records spans into a preallocated slice. Each load thread owns one,
// so recording takes no lock; they merge when the file is written.
type tracer struct {
	epoch    time.Time
	spans    []span
	overflow int64
}

func newTracer(epoch time.Time, capacity int) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, capacity)}
}

// now is the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its index, or -1 on overflow.
func (t *tracer) add(name string, start, end int64, parent int32, req int64) int32 {
	if len(t.spans) == cap(t.spans) {
		t.overflow++
		return -1
	}
	t.spans = append(t.spans, span{name, start, end, parent, req})
	return int32(len(t.spans) - 1)
}

// setEnd closes a span recorded before its children (a parent is added
// first so the children can name it).
func (t *tracer) setEnd(i int32, end int64) {
	if i >= 0 {
		t.spans[i].End = end
	}
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover. Overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < covered {
				lo = covered
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanTotals sums duration and self time by span name.
type spanTotals struct {
	Count           int64
	TotalNS, SelfNS int64
}

func totalsByName(spans []span) map[string]*spanTotals {
	self := selfTimes(spans)
	out := make(map[string]*spanTotals)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotals{}
			out[s.Name] = t
		}
		t.Count++
		t.TotalNS += s.End - s.Start
		t.SelfNS += self[i]
	}
	return out
}

// writeTrace writes the tracers' spans as one JSON file: a header, then
// {name, start_ns, end_ns, parent, req} per span. Parent indexes the file's
// span list (each tracer's indices are shifted by the spans before it).
func writeTrace(path, workload string, seed int64, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var overflow int64
	for _, t := range tracers {
		overflow += t.overflow
	}
	w.WriteString(`{"workload":` + strconv.Quote(workload) +
		`,"seed":` + strconv.FormatInt(seed, 10) +
		`,"overflow":` + strconv.FormatInt(overflow, 10) + `,"self_ns_by_name":{`)
	var all []span
	for _, t := range tracers {
		base := int32(len(all))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	totals := totalsByName(all)
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n) + ":" + strconv.FormatInt(totals[n].SelfNS, 10))
	}
	w.WriteString(`},"spans":[`)
	var buf []byte
	for i, s := range all {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"name\":"...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, ",\"start_ns\":"...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, ",\"end_ns\":"...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.Parent), 10)
		buf = append(buf, ",\"req\":"...)
		buf = strconv.AppendInt(buf, s.Req, 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
