// JSONL trace-event stream: one JSON object per line, ordered by emission.
// Three event types cover the runtime story end to end — a compile span
// (explicit or implicit compilation, with cache-hit flag), an invoke span
// (one call of a compiled function), and a fallback event (soft failure /
// signature miss / numerics auto-compile giving up). Timestamps are
// nanosecond offsets from SetTraceWriter so separate runs differ only in
// the offsets themselves (the golden test normalises them).
//
// Emission is decoupled from the sink: Emit stamps each event with a
// global sequence number and appends it to one of a small set of
// mutex-sharded bounded buffers (the shard is picked round-robin from the
// sequence, so no single lock serialises concurrent emitters). A collector
// goroutine drains all shards every few milliseconds, restores total order
// by sequence number, and fans the batch out to the attached JSONL writer
// and to the bounded in-memory recent-traces store behind /debug/traces.
// Detaching the writer performs a final synchronous drain, so tests and
// CLI flows that write-then-read see every event.
package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceEvent is one line of the JSONL stream. Correlation fields (trace
// /span/parent/engine) are appended after the original fields and omitted
// when empty, so span-less streams are byte-identical to the old format.
type TraceEvent struct {
	// Type is "compile", "invoke", or "fallback".
	Type string `json:"type"`
	// Name is the compiled function's display name.
	Name string `json:"name,omitempty"`
	// TNs is the event start, nanoseconds since the stream was attached.
	TNs int64 `json:"t_ns"`
	// DurNs is the span length for compile/invoke events.
	DurNs int64 `json:"dur_ns,omitempty"`
	// Backend labels the executing backend for invoke spans.
	Backend string `json:"backend,omitempty"`
	// CacheHit marks compile spans served from the compile cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Detail carries the fallback reason or compile error.
	Detail string `json:"detail,omitempty"`
	// TraceID/SpanID/ParentID correlate the event into a request's trace
	// tree (16-hex-digit ids, empty outside a traced request).
	TraceID  string `json:"trace_id,omitempty"`
	SpanID   string `json:"span_id,omitempty"`
	ParentID string `json:"parent_id,omitempty"`
	// Engine labels the evaluation unit (engine/session id) the event
	// belongs to.
	Engine string `json:"engine,omitempty"`
}

const (
	traceShards   = 8    // power of two; shard = seq & (traceShards-1)
	traceShardCap = 8192 // events buffered per shard between drains
	drainInterval = 5 * time.Millisecond
)

type seqEvent struct {
	seq uint64
	ev  TraceEvent
}

type traceShard struct {
	mu  sync.Mutex
	buf []seqEvent
	_   [24]byte // soften false sharing between adjacent shard locks
}

var shards [traceShards]traceShard

var trace struct {
	on      atomic.Bool   // fast-path guard: any sink (writer or capture) active
	epoch   atomic.Int64  // UnixNano at attach; TraceNow is lock-free off this
	seq     atomic.Uint64 // global emission order
	dropped atomic.Uint64 // events lost to full shards

	wmu sync.Mutex // guards w only
	w   io.Writer

	drainMu sync.Mutex // serialises drains (ticker vs flush vs detach)

	ctlMu   sync.Mutex // collector lifecycle + capture configuration
	running bool
	stop    chan struct{}
	done    chan struct{}
	capture *captureStore
}

// SetTraceWriter attaches (or, with nil, detaches) the JSONL sink and
// implicitly enables metric recording while attached. The caller owns the
// writer's lifecycle. Detaching drains all pending events synchronously
// before the writer is released.
func SetTraceWriter(w io.Writer) {
	if w != nil {
		trace.wmu.Lock()
		trace.w = w
		trace.wmu.Unlock()
		trace.epoch.Store(time.Now().UnixNano())
		trace.on.Store(true)
		enabled.Store(true)
		ensureCollector()
		return
	}
	// Detach: stop accepting, flush what's buffered, then release.
	trace.ctlMu.Lock()
	capOn := trace.capture != nil
	trace.ctlMu.Unlock()
	trace.on.Store(capOn)
	drainTrace()
	trace.wmu.Lock()
	trace.w = nil
	trace.wmu.Unlock()
	maybeStopCollector()
}

// TraceEnabled is the hot-path guard for trace emission: one atomic load.
func TraceEnabled() bool { return trace.on.Load() }

// TraceNow returns the current offset into the trace stream; pass it as
// TraceEvent.TNs for span starts captured before the work ran. Lock-free:
// the epoch is stored atomically at attach time.
func TraceNow() int64 { return time.Now().UnixNano() - trace.epoch.Load() }

// TraceDropped reports how many events were lost to full shard buffers
// since process start.
func TraceDropped() uint64 { return trace.dropped.Load() }

// Emit records one event. Safe to call concurrently; with no sink attached
// the event is dropped after a single atomic load. The event lands in a
// bounded shard buffer and reaches the writer/capture store at the next
// collector drain (at most a few milliseconds, or synchronously on
// FlushTrace/detach).
func Emit(ev TraceEvent) {
	if !trace.on.Load() {
		return
	}
	seq := trace.seq.Add(1)
	s := &shards[seq&(traceShards-1)]
	s.mu.Lock()
	if len(s.buf) < traceShardCap {
		s.buf = append(s.buf, seqEvent{seq: seq, ev: ev})
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	trace.dropped.Add(1)
}

// FlushTrace synchronously drains every buffered event to the attached
// writer and capture store. Call before reading a sink that must reflect
// all emissions so far.
func FlushTrace() { drainTrace() }

func ensureCollector() {
	trace.ctlMu.Lock()
	defer trace.ctlMu.Unlock()
	if trace.running {
		return
	}
	trace.running = true
	trace.stop = make(chan struct{})
	trace.done = make(chan struct{})
	go collectorLoop(trace.stop, trace.done)
}

// maybeStopCollector shuts the collector down once no sink remains. The
// final drain inside the collector is redundant with the caller's drain
// but harmless (drains are serialised and idempotent).
func maybeStopCollector() {
	trace.ctlMu.Lock()
	if !trace.running || trace.capture != nil {
		trace.ctlMu.Unlock()
		return
	}
	trace.wmu.Lock()
	hasW := trace.w != nil
	trace.wmu.Unlock()
	if hasW {
		trace.ctlMu.Unlock()
		return
	}
	stop, done := trace.stop, trace.done
	trace.running = false
	trace.ctlMu.Unlock()
	close(stop)
	<-done
}

func collectorLoop(stop, done chan struct{}) {
	t := time.NewTicker(drainInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			drainTrace()
			close(done)
			return
		case <-t.C:
			drainTrace()
		}
	}
}

// drainTrace moves every buffered event, in global sequence order, to the
// writer and the capture store. Never takes ctlMu while holding drainMu
// beyond a snapshot read, and writes to the writer under wmu only — the
// lock order (drainMu → ctlMu, drainMu → wmu) is acyclic.
func drainTrace() {
	trace.drainMu.Lock()
	defer trace.drainMu.Unlock()
	var evs []seqEvent
	for i := range shards {
		s := &shards[i]
		s.mu.Lock()
		if n := len(s.buf); n > 0 {
			evs = append(evs, s.buf...)
			s.buf = s.buf[:0]
		}
		s.mu.Unlock()
	}
	if len(evs) == 0 {
		return
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })

	trace.ctlMu.Lock()
	store := trace.capture
	trace.ctlMu.Unlock()

	trace.wmu.Lock()
	hasW := trace.w != nil
	trace.wmu.Unlock()

	var out bytes.Buffer
	for _, se := range evs {
		if store != nil {
			store.add(se.ev)
		}
		if hasW {
			data, err := json.Marshal(se.ev)
			if err == nil {
				out.Write(data)
				out.WriteByte('\n')
			}
		}
	}
	if out.Len() > 0 {
		trace.wmu.Lock()
		if trace.w != nil {
			trace.w.Write(out.Bytes())
		}
		trace.wmu.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Recent-traces capture store

// captureTraceEventCap bounds the events kept per trace; a runaway request
// keeps its first events (the serve root plus the compiles it triggered)
// and drops the tail.
const captureTraceEventCap = 512

// CapturedTrace is one complete trace tree as served by /debug/traces.
type CapturedTrace struct {
	TraceID string       `json:"trace_id"`
	Events  []TraceEvent `json:"events"`
}

// captureStore keeps the last maxTraces traces' span-carrying events,
// keyed by trace id, evicting least-recently-updated whole traces.
type captureStore struct {
	mu        sync.Mutex
	maxTraces int
	order     []string // trace ids, least recently updated first
	traces    map[string][]TraceEvent
}

func newCaptureStore(maxTraces int) *captureStore {
	if maxTraces <= 0 {
		maxTraces = 256
	}
	return &captureStore{maxTraces: maxTraces, traces: make(map[string][]TraceEvent, maxTraces)}
}

func (cs *captureStore) add(ev TraceEvent) {
	if ev.TraceID == "" {
		return // only correlated events form trace trees
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	evs, ok := cs.traces[ev.TraceID]
	if ok {
		if len(evs) < captureTraceEventCap {
			cs.traces[ev.TraceID] = append(evs, ev)
		}
		cs.touch(ev.TraceID)
		return
	}
	if len(cs.traces) >= cs.maxTraces {
		victim := cs.order[0]
		cs.order = cs.order[1:]
		delete(cs.traces, victim)
	}
	cs.traces[ev.TraceID] = append(make([]TraceEvent, 0, 8), ev)
	cs.order = append(cs.order, ev.TraceID)
}

func (cs *captureStore) touch(id string) {
	for i := len(cs.order) - 1; i >= 0; i-- {
		if cs.order[i] == id {
			copy(cs.order[i:], cs.order[i+1:])
			cs.order[len(cs.order)-1] = id
			return
		}
	}
}

func (cs *captureStore) snapshot() []CapturedTrace {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	out := make([]CapturedTrace, 0, len(cs.order))
	for i := len(cs.order) - 1; i >= 0; i-- { // most recently updated first
		id := cs.order[i]
		evs := cs.traces[id]
		cp := make([]TraceEvent, len(evs))
		copy(cp, evs)
		out = append(out, CapturedTrace{TraceID: id, Events: cp})
	}
	return out
}

// EnableTraceCapture turns on the bounded in-memory recent-traces store
// (behind /debug/traces), keeping at most maxTraces trace trees;
// maxTraces <= 0 selects the default of 256. Implicitly enables metric
// recording, like attaching a trace writer.
func EnableTraceCapture(maxTraces int) {
	trace.ctlMu.Lock()
	trace.capture = newCaptureStore(maxTraces)
	trace.ctlMu.Unlock()
	if trace.epoch.Load() == 0 {
		trace.epoch.Store(time.Now().UnixNano())
	}
	trace.on.Store(true)
	enabled.Store(true)
	ensureCollector()
}

// DisableTraceCapture drops the recent-traces store and its contents.
func DisableTraceCapture() {
	drainTrace()
	trace.ctlMu.Lock()
	trace.capture = nil
	trace.ctlMu.Unlock()
	trace.wmu.Lock()
	hasW := trace.w != nil
	trace.wmu.Unlock()
	trace.on.Store(hasW)
	maybeStopCollector()
}

// TraceCaptureEnabled reports whether the recent-traces store is active.
func TraceCaptureEnabled() bool {
	trace.ctlMu.Lock()
	defer trace.ctlMu.Unlock()
	return trace.capture != nil
}

// RecentTraces drains pending events and returns the captured trace trees,
// most recently updated first. Nil when capture is disabled.
func RecentTraces() []CapturedTrace {
	drainTrace()
	trace.ctlMu.Lock()
	store := trace.capture
	trace.ctlMu.Unlock()
	if store == nil {
		return nil
	}
	return store.snapshot()
}
