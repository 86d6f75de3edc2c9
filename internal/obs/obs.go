// Package obs is the runtime observability layer (ISSUE 4). The paper's
// headline claims are runtime behaviours — gradual compilation with
// interpreter fallback (F9), soft numeric failure (F2), abortability (F3) —
// and this package makes them measurable in a long-lived process: per
// compiled function it tracks invocation counts, a log-scale latency
// histogram, soft-failure/fallback counts, and abort counts; globally it
// tracks runtime-exception counters and compile-cache effectiveness; and it
// can stream JSONL trace events (compile span, invoke span, fallback event)
// to a writer.
//
// One mechanism of each kind: every latency histogram (a function's, a named
// one, each series of a labelled one) is a latency; every registered list is
// a registry; every histogram renders through writeHist and every label
// value through label.
//
// Cost model: everything is off by default. The hot-path contract is one
// atomic load and one predictable branch per guarded site when disabled
// (Enabled() / TraceEnabled()), and zero allocation either way — recording
// uses preallocated fixed-size atomic counter arrays. Sinks (the /metrics
// HTTP endpoint in http.go, the trace stream) enable collection when
// attached.
package obs

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// enabled gates all metric recording. SetEnabled flips it; attaching a sink
// (ServeMetrics, SetTraceWriter) enables it implicitly.
var enabled atomic.Bool

// SetEnabled turns metric recording on or off and returns the previous
// state. Counters are not reset: disable/enable pairs pause collection.
func SetEnabled(on bool) bool { return enabled.Swap(on) }

// Enabled reports whether metric recording is on. This is the hot-path
// guard: one atomic load, no allocation.
func Enabled() bool { return enabled.Load() }

// NumLatencyBuckets is the fixed size of a latency histogram. Bucket i
// counts observations whose duration in nanoseconds has bit-length i (i.e.
// duration in [2^(i-1), 2^i) ns for i >= 1; bucket 0 is sub-nanosecond/zero).
// 48 buckets cover ~3.2 days per observation.
const NumLatencyBuckets = 48

// latencyBucket maps a duration to its histogram bucket.
func latencyBucket(d time.Duration) int {
	b := bits.Len64(uint64(d.Nanoseconds()))
	if b >= NumLatencyBuckets {
		b = NumLatencyBuckets - 1
	}
	return b
}

// BucketUpperNs returns the exclusive upper bound (in ns) of histogram
// bucket i, for rendering `le` labels.
func BucketUpperNs(i int) uint64 {
	if i >= 63 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// latency is the one log₂ duration histogram: an observation count, the
// total nanoseconds and the bucket counts, all atomics, so a function's
// block, a named histogram and each series of a labelled one record alike.
type latency struct {
	count   atomic.Uint64
	totalNs atomic.Uint64
	buckets [NumLatencyBuckets]atomic.Uint64
}

func (l *latency) observe(d time.Duration) {
	l.count.Add(1)
	l.totalNs.Add(uint64(d.Nanoseconds()))
	l.buckets[latencyBucket(d)].Add(1)
}

// fold adds o's observations to l (an evicted series into _overflow).
func (l *latency) fold(o *latency) {
	l.count.Add(o.count.Load())
	l.totalNs.Add(o.totalNs.Load())
	for i := range l.buckets {
		l.buckets[i].Add(o.buckets[i].Load())
	}
}

// snapshot copies the counters. The copy is per-field atomic (not a single
// consistent cut), which is the usual monitoring contract.
func (l *latency) snapshot() Latency {
	s := Latency{Count: l.count.Load(), TotalNs: l.totalNs.Load()}
	for i := range s.Buckets {
		s.Buckets[i] = l.buckets[i].Load()
	}
	return s
}

// Latency is a point-in-time copy of a latency histogram.
type Latency struct {
	Count   uint64
	TotalNs uint64
	Buckets [NumLatencyBuckets]uint64
}

// MeanNs returns the mean observed duration in nanoseconds.
func (s Latency) MeanNs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.TotalNs) / float64(s.Count)
}

// registry is an append-only list of registered metrics, in registration
// order, under one mutex.
type registry[T any] struct {
	mu    sync.Mutex
	items []T
}

func (r *registry[T]) add(x T) T {
	r.mu.Lock()
	r.items = append(r.items, x)
	r.mu.Unlock()
	return x
}

func (r *registry[T]) list() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.items)
}

var (
	counters      registry[*Counter]
	histograms    registry[*Histogram]
	histogramVecs registry[*HistogramVec]
)

// FuncMetrics is the per-compiled-function counter block, recorded at the
// core invocation boundary. All fields are atomics; the struct is shared by
// every concurrent caller of one compiled function and must not be copied.
type FuncMetrics struct {
	// name is the display name. A function registered by its source
	// (RegisterFuncSource) has src instead until the name is first read:
	// printing a whole source is most of what registering cost, and the name
	// is read only by a scrape or a trace event.
	name     string
	src      fmt.Stringer
	nameOnce sync.Once
	backend  string
	engine   string

	lat       latency // its count is the invocation count
	fallbacks atomic.Uint64
	aborts    atomic.Uint64

	// detail, when set, renders extra per-function text for /debug/funcs
	// (the hot-block table of a profiled function). Stored atomically so a
	// compile can attach it while the endpoint reads.
	detail atomic.Value // func() string
}

// Name returns the display name the function was registered under.
func (m *FuncMetrics) Name() string {
	if m == nil {
		return ""
	}
	m.nameOnce.Do(m.renderName)
	return m.name
}

func (m *FuncMetrics) renderName() {
	if m.src != nil {
		m.name, m.src = m.src.String(), nil
	}
}

// Backend returns the backend label ("closure", "closure-aot", "wvm").
func (m *FuncMetrics) Backend() string {
	if m == nil {
		return ""
	}
	return m.backend
}

// Engine returns the engine id the function was registered under ("" for
// process-scoped registrations).
func (m *FuncMetrics) Engine() string {
	if m == nil {
		return ""
	}
	return m.engine
}

// SetDetail attaches a lazy detail renderer shown under /debug/funcs.
func (m *FuncMetrics) SetDetail(f func() string) {
	if m == nil || f == nil {
		return
	}
	m.detail.Store(f)
}

// RecordInvoke counts one successful invocation of duration d. Callers
// should guard with Enabled() so the clock reads stay off the disabled
// path; RecordInvoke itself only touches preallocated atomics.
func (m *FuncMetrics) RecordInvoke(d time.Duration) {
	if m == nil {
		return
	}
	m.lat.observe(d)
}

// RecordFallback counts one soft failure that re-evaluated through the
// interpreter (F2) or an argument that missed the compiled signature.
func (m *FuncMetrics) RecordFallback() {
	if m == nil {
		return
	}
	m.fallbacks.Add(1)
}

// RecordAbort counts one invocation that ended in $Aborted (F3).
func (m *FuncMetrics) RecordAbort() {
	if m == nil {
		return
	}
	m.aborts.Add(1)
}

// FuncSnapshot is a point-in-time copy of one function's counters; its
// Latency's Count is the invocation count.
type FuncSnapshot struct {
	Name    string
	Backend string
	Engine  string
	Latency
	Fallbacks uint64
	Aborts    uint64
	Detail    string
}

// Snapshot copies the counters (per-field atomic).
func (m *FuncMetrics) Snapshot() FuncSnapshot {
	s := FuncSnapshot{
		Name:      m.Name(),
		Backend:   m.backend,
		Engine:    m.engine,
		Latency:   m.lat.snapshot(),
		Fallbacks: m.fallbacks.Load(),
		Aborts:    m.aborts.Load(),
	}
	if f, ok := m.detail.Load().(func() string); ok && f != nil {
		s.Detail = f()
	}
	return s
}

// maxRegisteredFuncs bounds the registry so a long-lived process compiling
// unbounded distinct sources cannot leak metric blocks. Past the cap,
// RegisterFunc still returns a live (recordable) block — it just isn't
// listed by the endpoint; the overflow count reports how many were dropped.
const maxRegisteredFuncs = 1024

var funcReg = struct {
	mu       sync.Mutex
	funcs    []*FuncMetrics
	overflow uint64
}{}

// RegisterFunc creates (and, registry capacity permitting, lists) a metric
// block for one compiled function. name is a display label — typically the
// assignment name or a source snippet; backend labels the executing backend.
func RegisterFunc(name, backend string) *FuncMetrics {
	return RegisterFuncScoped(name, backend, "")
}

// RegisterFuncScoped is RegisterFunc with an engine id attached, so a
// multi-tenant process can (a) tell sessions apart on /metrics and (b) free
// a dead session's registry slots with ReleaseEngineFuncs. Past the cap the
// block still records but is unlisted, exactly like RegisterFunc.
func RegisterFuncScoped(name, backend, engine string) *FuncMetrics {
	return register(&FuncMetrics{name: name, backend: backend, engine: engine})
}

// RegisterFuncSource is RegisterFuncScoped for a function whose display name
// is its source: src is kept and printed (String) the first time the name is
// read.
func RegisterFuncSource(src fmt.Stringer, backend, engine string) *FuncMetrics {
	return register(&FuncMetrics{src: src, backend: backend, engine: engine})
}

func register(m *FuncMetrics) *FuncMetrics {
	funcReg.mu.Lock()
	if len(funcReg.funcs) < maxRegisteredFuncs {
		funcReg.funcs = append(funcReg.funcs, m)
	} else {
		funcReg.overflow++
	}
	funcReg.mu.Unlock()
	return m
}

// ReleaseEngineFuncs unlists every metric block registered under engine,
// returning how many were dropped. Freed slots are reusable, so churning
// short-lived engines through a process does not exhaust the registry cap.
// Blocks already held by live compiled code keep recording — they just stop
// being listed. The overflow count is NOT rewound: it is a lifetime drop
// counter, not a gauge.
func ReleaseEngineFuncs(engine string) int {
	if engine == "" {
		return 0
	}
	funcReg.mu.Lock()
	defer funcReg.mu.Unlock()
	n := len(funcReg.funcs)
	funcReg.funcs = slices.DeleteFunc(funcReg.funcs, func(m *FuncMetrics) bool { return m.engine == engine })
	return n - len(funcReg.funcs)
}

// FuncSnapshots returns a snapshot of every registered function, most
// invoked first, plus the count of RegisterFunc calls that landed past the
// registry cap (their blocks record but are not listed, so a non-zero value
// means the per-function tables undercount the process).
func FuncSnapshots() ([]FuncSnapshot, uint64) {
	funcReg.mu.Lock()
	funcs := slices.Clone(funcReg.funcs)
	overflow := funcReg.overflow
	funcReg.mu.Unlock()
	out := make([]FuncSnapshot, 0, len(funcs))
	for _, m := range funcs {
		out = append(out, m.Snapshot())
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out, overflow
}

// ResetFuncRegistry drops every registered function block (tests).
func ResetFuncRegistry() {
	funcReg.mu.Lock()
	funcReg.funcs = nil
	funcReg.overflow = 0
	funcReg.mu.Unlock()
}

// Counter is a named process-global monotonic counter (runtime exceptions
// by kind, numerics fallbacks, ...). Counters always count — they live on
// cold paths (a thrown exception, a failed auto-compile) where one atomic
// add is free — and are rendered by /metrics.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

// NewCounter registers a named global counter. Names should be
// snake_case; /metrics renders them as wolfc_<name>_total.
func NewCounter(name string) *Counter { return counters.add(&Counter{name: name}) }

// Counters returns the registered global counters in registration order.
func Counters() []*Counter { return counters.list() }

// Histogram is a named process-global latency histogram. The tiering engine
// registers one per compile tier ("stencil", "o2") so the compile-latency
// story — the whole point of the baseline tier — is observable from
// /metrics and wolfbench.
type Histogram struct {
	name string
	lat  latency
}

// Observe records one duration. Histograms always record (they live on
// cold paths — a compile — where three atomic adds are free).
func (h *Histogram) Observe(d time.Duration) {
	if h != nil {
		h.lat.observe(d)
	}
}

// NewHistogram registers a named global histogram. Names should be
// snake_case; /metrics renders wolfc_<name>_ns_{bucket,sum,count}.
func NewHistogram(name string) *Histogram { return histograms.add(&Histogram{name: name}) }

// Gauge is one named instantaneous value contributed by a provider. A
// non-empty Engine renders as an `engine="<id>"` label on the series.
type Gauge struct {
	Name   string
	Value  float64
	Engine string
}

// GaugeProvider supplies a gauge set on demand (the compile cache in
// internal/core registers one; the endpoint polls it per scrape).
type GaugeProvider func() []Gauge

// maxEngineGauges bounds the number of concurrently registered
// engine-labeled gauge providers. A serving process churning thousands of
// short-lived sessions must not grow the scrape output (or this registry)
// without bound: past the cap, RegisterEngineGauges declines the
// registration — the engine's state still aggregates into the process-wide
// series, it just loses its own labeled series — and counts the drop.
const maxEngineGauges = 128

var gaugeReg = struct {
	mu        sync.Mutex
	providers []GaugeProvider
	engines   map[uint64]GaugeProvider
	engineSeq uint64
}{}

// RegisterGaugeProvider adds a permanent gauge source polled by /metrics.
// Providers must be safe for concurrent calls. There is deliberately no
// unregister: this is for process-lifetime subsystems; per-engine state
// goes through RegisterEngineGauges.
func RegisterGaugeProvider(p GaugeProvider) {
	gaugeReg.mu.Lock()
	gaugeReg.providers = append(gaugeReg.providers, p)
	gaugeReg.mu.Unlock()
}

// RegisterEngineGauges adds a releasable gauge source for one engine and
// returns its release function (idempotent, safe to call more than once).
// Registration is capacity-bounded by maxEngineGauges: past the cap the
// provider is not polled, the drop is counted on
// wolfc_obs_engine_gauges_dropped_total, and the returned release is a
// no-op. An empty engine id is a process-lifetime provider in disguise and
// is routed to RegisterGaugeProvider (never dropped, never released).
func RegisterEngineGauges(engine string, p GaugeProvider) (release func()) {
	if p == nil {
		return func() {}
	}
	if engine == "" {
		RegisterGaugeProvider(p)
		return func() {}
	}
	gaugeReg.mu.Lock()
	defer gaugeReg.mu.Unlock()
	if len(gaugeReg.engines) >= maxEngineGauges {
		ctrEngineGaugesDropped.Inc()
		return func() {}
	}
	if gaugeReg.engines == nil {
		gaugeReg.engines = map[uint64]GaugeProvider{}
	}
	gaugeReg.engineSeq++
	id := gaugeReg.engineSeq
	gaugeReg.engines[id] = p
	var once sync.Once
	return func() {
		once.Do(func() {
			gaugeReg.mu.Lock()
			delete(gaugeReg.engines, id)
			gaugeReg.mu.Unlock()
		})
	}
}

// liveEngineGauges reports the live engine-provider count.
func liveEngineGauges() int {
	gaugeReg.mu.Lock()
	defer gaugeReg.mu.Unlock()
	return len(gaugeReg.engines)
}

// ctrEngineGaugesDropped counts engine gauge registrations declined at the
// cardinality cap, so a fleet dashboard can see label loss happening.
var ctrEngineGaugesDropped = NewCounter("obs_engine_gauges_dropped")

// ProviderGauges polls every registered provider: the permanent ones in
// registration order, then the live engine providers in a deterministic
// (registration-sequence) order so scrapes are stable.
func ProviderGauges() []Gauge {
	gaugeReg.mu.Lock()
	providers := slices.Clone(gaugeReg.providers)
	ids := make([]uint64, 0, len(gaugeReg.engines))
	for id := range gaugeReg.engines {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		providers = append(providers, gaugeReg.engines[id])
	}
	gaugeReg.mu.Unlock()
	var out []Gauge
	for _, p := range providers {
		out = append(out, p()...)
	}
	return out
}

// labelEscaper escapes a label value for the text exposition format, which
// defines exactly three escapes: backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func sanitizeLabel(s string) string { return labelEscaper.Replace(s) }

// label renders one k="v" pair, the value escaped once.
func label(k, v string) string { return k + `="` + sanitizeLabel(v) + `"` }

// shortName truncates long display names (whole-source snippets) so the
// exposition stays readable.
func shortName(s string) string {
	const max = 80
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut-- // never split a rune: the label must stay valid UTF-8
	}
	return fmt.Sprintf("%s…(%d chars)", s[:cut], len(s))
}
