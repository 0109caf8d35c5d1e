package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. An aggregate span folds every call of one
// per-event callback under the same parent into a single record: it
// carries the calls' summed duration in busy and their number in
// calls, and its start and end bracket the first and last call.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the tracer's spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Agg    bool   `json:"agg,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int64  `json:"calls,omitempty"`
	OK     int64  `json:"ok,omitempty"` // aggregate calls that returned a useful answer
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pass nil.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int          // stack of open span indices
	aggs   map[aggKey]int // aggregate span index per (parent, name)
}

type aggKey struct {
	parent int
	name   string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), aggs: make(map[aggKey]int)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span as a child of the innermost open span and returns
// its index for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: t.parent(), Start: t.now()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("tracer: span closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = t.now()
}

// call returns the start time of a per-event callback for record.
func (t *tracer) call() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// record folds one per-event callback that started at start into the
// aggregate span name under the innermost open span.
func (t *tracer) record(name string, start int64, ok bool) {
	if t == nil {
		return
	}
	stop := t.now()
	key := aggKey{t.parent(), name}
	id, found := t.aggs[key]
	if !found {
		t.spans = append(t.spans, span{Name: name, Parent: key.parent, Start: start, Agg: true})
		id = len(t.spans) - 1
		t.aggs[key] = id
	}
	s := &t.spans[id]
	s.End = stop
	s.Busy += stop - start
	s.Calls++
	if ok {
		s.OK++
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once; aggregate children are sequential calls made from
// inside the parent, so their summed duration is subtracted whole.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Agg {
			self[i] = s.Busy
			continue
		}
		var ivs [][2]int64
		var aggBusy int64
		for _, c := range children[i] {
			cs := &spans[c]
			if cs.Agg {
				aggBusy += cs.Busy
				continue
			}
			ivs = append(ivs, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		self[i] = s.End - s.Start - covered(ivs) - aggBusy
	}
	return self
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curStart, curEnd := int64(0), int64(0)
	started := false
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case !started:
			curStart, curEnd, started = iv[0], iv[1], true
		case iv[0] > curEnd:
			total += curEnd - curStart
			curStart, curEnd = iv[0], iv[1]
		case iv[1] > curEnd:
			curEnd = iv[1]
		}
	}
	if started {
		total += curEnd - curStart
	}
	return total
}

// layerTotals sums self time, calls and useful answers per span name.
type layerTotal struct {
	self      int64
	calls, ok int64
}

func layerTotals(spans []span) map[string]layerTotal {
	self := selfTimes(spans)
	out := make(map[string]layerTotal)
	for i := range spans {
		lt := out[spans[i].Name]
		lt.self += self[i]
		lt.calls += spans[i].Calls
		lt.ok += spans[i].OK
		out[spans[i].Name] = lt
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}
