package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The span recorder. Spans sit only in this benchmark's code, around its
// calls into the layers' public functions; they are kept in memory and
// written out, if asked, when the run ends. A nil *tracer records nothing,
// which is how the untraced run executes the same code.

type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch; end 0 while open
	parent     int   // index of the span that caused this one, -1 for a root
	op         int64 // shared by every span of one operation
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// in runs f under a span and returns f's duration as the harness clock saw
// it, so traced and untraced runs time an operation the same way.
func (t *tracer) in(name string, parent int, op int64, f func(id int)) int64 {
	id := t.begin(name, parent, op)
	t0 := time.Now()
	f(id)
	d := time.Since(t0).Nanoseconds()
	t.end(id)
	return d
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover. Children are clipped to the parent
// and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, reach := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < reach {
				lo = reach
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] -= covered
	}
	return out
}

// byName groups the durations and self times of the closed spans recorded
// from index first on, by span name. Parents must be at or after first.
func (t *tracer) byName(first int) (dur, self map[string][]float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans[first:]...)
	t.mu.Unlock()
	for i := range spans {
		if spans[i].parent >= 0 {
			spans[i].parent -= first
		}
	}
	selfs := selfTimes(spans)
	dur, self = map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		dur[s.name] = append(dur[s.name], float64(s.end-s.start))
		self[s.name] = append(self[s.name], float64(selfs[i]))
	}
	return dur, self
}

// chromeTraceCap bounds the exported file: a traced serve segment records
// hundreds of thousands of spans, and a viewer needs a sample, not all.
const chromeTraceCap = 50_000

// writeChrome writes the first chromeTraceCap spans as Chrome trace-event
// JSON (chrome://tracing, Perfetto): complete events, one track per op.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	n := len(t.spans)
	if n > chromeTraceCap {
		n = chromeTraceCap
	}
	spans := append([]span(nil), t.spans[:n]...)
	t.mu.Unlock()
	selfs := selfTimes(spans)
	events := make([]event, 0, n)
	for i, s := range spans {
		if s.end == 0 {
			continue
		}
		events = append(events, event{Name: s.name, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.op,
			Args: map[string]any{"span": i, "parent": s.parent, "self_us": float64(selfs[i]) / 1e3}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
