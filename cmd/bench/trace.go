package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// cmd/bench only, around calls into a layer; name is "layer.what", parent is
// the index of the span that caused it (-1 for an op's root) and op the
// operation both belong to.
type span struct {
	Name   string `json:"name"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // nanoseconds since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, and one
// that is switched off, record nothing: begin returns -1 and end ignores it.
type tracer struct {
	origin time.Time
	on     atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int32) int32 {
	if !t.enabled() {
		return -1
	}
	start := int64(time.Since(t.origin))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	end := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (hpcm.Record
// timestamps).
func (t *tracer) add(name string, op, parent int32, start, end time.Time) int32 {
	if !t.enabled() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return int32(len(t.spans) - 1)
}

// attribute names the op and parent of a span that was opened before they
// were known.
func (t *tracer) attribute(id, op, parent int32) {
	t.mu.Lock()
	t.spans[id].Op, t.spans[id].Parent = op, parent
	t.mu.Unlock()
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (children clipped to the parent,
// overlapping children counted once). Unfinished spans have self time 0.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End <= s.Start {
			continue
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotals aggregates a trace by span name.
type spanTotals struct {
	spans []span
	count map[string]int
	dur   map[string]int64 // summed durations, ns
	self  map[string]int64 // summed self times, ns
}

func totals(spans []span) spanTotals {
	t := spanTotals{spans: spans, count: map[string]int{}, dur: map[string]int64{}, self: map[string]int64{}}
	self := selfTimes(spans)
	for i, s := range spans {
		t.count[s.Name]++
		t.dur[s.Name] += s.End - s.Start
		t.self[s.Name] += self[i]
	}
	return t
}

// meanUS is the mean duration of the named span in microseconds.
func (t spanTotals) meanUS(name string) float64 {
	if t.count[name] == 0 {
		return 0
	}
	return float64(t.dur[name]) / float64(t.count[name]) / 1e3
}

// selfPerOpUS is the named span's summed self time per op, in microseconds.
func (t spanTotals) selfPerOpUS(name string, ops int) float64 {
	return float64(t.self[name]) / float64(ops) / 1e3
}

// coverage is the share of the ops' wall time (the summed root spans) that
// falls into spans of the repository's own layers; the rest is self time of
// "bench." spans, the benchmark's own glue between layer calls.
func (t spanTotals) coverage() float64 {
	var root, glue int64
	for name, d := range t.self {
		root += d
		if strings.HasPrefix(name, "bench.") {
			glue += d
		}
	}
	if root == 0 {
		return 0
	}
	return float64(root-glue) / float64(root)
}
