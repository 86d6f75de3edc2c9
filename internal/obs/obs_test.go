package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

func TestLatencyBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{1 * time.Nanosecond, 1},
		{2 * time.Nanosecond, 2},
		{3 * time.Nanosecond, 2},
		{4 * time.Nanosecond, 3},
		{1023 * time.Nanosecond, 10},
		{1024 * time.Nanosecond, 11},
		{time.Second, 30},
		{200 * time.Hour, NumLatencyBuckets - 1}, // clamped to the top bucket
	}
	for _, c := range cases {
		if got := latencyBucket(c.d); got != c.want {
			t.Errorf("latencyBucket(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Bucket upper bounds are monotone powers of two.
	for i := 1; i < NumLatencyBuckets; i++ {
		if BucketUpperNs(i) != 2*BucketUpperNs(i-1) {
			t.Fatalf("BucketUpperNs not doubling at %d", i)
		}
	}
}

func TestFuncMetricsRecordAndSnapshot(t *testing.T) {
	ResetFuncRegistry()
	m := RegisterFunc("f", "closure")
	m.RecordInvoke(100 * time.Nanosecond)
	m.RecordInvoke(3 * time.Nanosecond)
	m.RecordFallback()
	m.RecordAbort()
	s := m.Snapshot()
	if s.Count != 2 || s.Fallbacks != 1 || s.Aborts != 1 {
		t.Fatalf("snapshot counters = %+v", s)
	}
	if s.TotalNs != 103 {
		t.Fatalf("TotalNs = %d, want 103", s.TotalNs)
	}
	if s.Buckets[latencyBucket(100*time.Nanosecond)] != 1 || s.Buckets[2] != 1 {
		t.Fatalf("bucket placement wrong: %v", s.Buckets[:12])
	}
	if got := s.MeanNs(); got != 51.5 {
		t.Fatalf("MeanNs = %v, want 51.5", got)
	}
}

func TestNilSafety(t *testing.T) {
	var m *FuncMetrics
	m.RecordInvoke(time.Second)
	m.RecordFallback()
	m.RecordAbort()
	m.SetDetail(func() string { return "" })
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
}

func TestRecordInvokeZeroAlloc(t *testing.T) {
	m := &FuncMetrics{name: "z", backend: "closure"}
	allocs := testing.AllocsPerRun(100, func() {
		m.RecordInvoke(5 * time.Microsecond)
		m.RecordFallback()
		m.RecordAbort()
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %v times per run", allocs)
	}
}

func TestEnableGate(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	if Enabled() {
		t.Fatal("expected disabled")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Fatal("expected enabled")
	}
}

func TestRegistryCapOverflow(t *testing.T) {
	ResetFuncRegistry()
	defer ResetFuncRegistry()
	for i := 0; i < maxRegisteredFuncs; i++ {
		RegisterFunc(fmt.Sprintf("f%d", i), "closure")
	}
	over := RegisterFunc("overflowed", "closure")
	over.RecordInvoke(time.Nanosecond) // still live, just unlisted
	snaps, overflow := FuncSnapshots()
	if len(snaps) != maxRegisteredFuncs {
		t.Fatalf("listed %d funcs, want %d", len(snaps), maxRegisteredFuncs)
	}
	if overflow != 1 {
		t.Fatalf("overflow = %d, want 1", overflow)
	}
	if over.Snapshot().Count != 1 {
		t.Fatal("overflow block did not record")
	}
	RegisterFunc("overflowed2", "closure")
	if _, overflow := FuncSnapshots(); overflow != 2 {
		t.Fatalf("overflow = %d, want 2", overflow)
	}
	// The counter is always present in the exposition, zero or not, so a
	// dashboard can alert on its first increment.
	var sb strings.Builder
	RenderMetrics(&sb)
	if !strings.Contains(sb.String(), "wolfc_func_registry_overflow_total 2\n") {
		t.Fatal("overflow counter missing from /metrics exposition")
	}
	ResetFuncRegistry()
	sb.Reset()
	RenderMetrics(&sb)
	if !strings.Contains(sb.String(), "wolfc_func_registry_overflow_total 0\n") {
		t.Fatal("zero overflow counter must still be exposed")
	}
}

func TestFuncSnapshotsSorted(t *testing.T) {
	ResetFuncRegistry()
	defer ResetFuncRegistry()
	a := RegisterFunc("cold", "closure")
	b := RegisterFunc("hot", "closure")
	a.RecordInvoke(time.Nanosecond)
	for i := 0; i < 5; i++ {
		b.RecordInvoke(time.Nanosecond)
	}
	snaps, _ := FuncSnapshots()
	if snaps[0].Name != "hot" {
		t.Fatalf("want hot first, got %q", snaps[0].Name)
	}
}

func TestSanitizeLabel(t *testing.T) {
	if got := sanitizeLabel(`a"b\c` + "\n"); got != `a\"b\\c\n` {
		t.Fatalf("sanitizeLabel = %q", got)
	}
	if got := sanitizeLabel("plain"); got != "plain" {
		t.Fatalf("sanitizeLabel(plain) = %q", got)
	}
}

// A long display name (an anonymous function's source) is cut for /metrics
// and /debug/funcs; the cut must not fall inside a rune, or the label is not
// UTF-8.
func TestShortNameCutsAtARuneBoundary(t *testing.T) {
	name := strings.Repeat("a", 79) + "é" + strings.Repeat("b", 40) // byte 80 is the second of é
	got := shortName(name)
	if !utf8.ValidString(got) {
		t.Errorf("shortName split a rune: %q", got)
	}
	if want := strings.Repeat("a", 79) + "…(121 chars)"; got != want {
		t.Errorf("shortName = %q, want %q", got, want)
	}
	if got := shortName("short π"); got != "short π" {
		t.Errorf("a short name is kept: %q", got)
	}
}

type countedStringer struct{ n *int }

func (c countedStringer) String() string { *c.n++; return "Function[{x}, x]" }

// A function registered by its source is named by printing it, once, when
// the name is first read — registering prints nothing.
func TestRegisterFuncSourceRendersOnDemand(t *testing.T) {
	ResetFuncRegistry()
	defer ResetFuncRegistry()
	printed := 0
	m := RegisterFuncSource(countedStringer{&printed}, "closure", "e1")
	m.RecordInvoke(time.Microsecond)
	if printed != 0 {
		t.Fatalf("registering and recording printed the source %d times", printed)
	}
	snaps, _ := FuncSnapshots()
	if len(snaps) != 1 || snaps[0].Name != "Function[{x}, x]" || m.Name() != "Function[{x}, x]" || printed != 1 {
		t.Fatalf("name %q / %q, printed %d times", snaps[0].Name, m.Name(), printed)
	}
	if n := testing.AllocsPerRun(100, func() { _ = m.Name() }); n != 0 {
		t.Errorf("reading a rendered name allocates %.0f times", n)
	}
}

func TestTraceStream(t *testing.T) {
	var buf bytes.Buffer
	SetTraceWriter(&buf)
	defer SetTraceWriter(nil)
	if !TraceEnabled() || !Enabled() {
		t.Fatal("attaching the trace writer should enable tracing and metrics")
	}
	Emit(TraceEvent{Type: "compile", Name: "f", TNs: TraceNow(), DurNs: 10, CacheHit: true})
	Emit(TraceEvent{Type: "fallback", Name: "f", TNs: TraceNow(), Detail: "IntegerOverflow"})
	SetTraceWriter(nil)
	Emit(TraceEvent{Type: "invoke"}) // detached: dropped
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	var ev TraceEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Type != "compile" || !ev.CacheHit || ev.DurNs != 10 {
		t.Fatalf("compile event = %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if ev.Type != "fallback" || ev.Detail != "IntegerOverflow" {
		t.Fatalf("fallback event = %+v", ev)
	}
}

func TestRenderMetricsAndEndpoint(t *testing.T) {
	ResetFuncRegistry()
	defer ResetFuncRegistry()
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	m := RegisterFunc("sq", "closure")
	m.RecordInvoke(100 * time.Nanosecond)
	m.RecordFallback()
	m.RecordAbort()
	m.SetDetail(func() string { return "block 0: 1\n" })
	c := NewCounter("test_render_metric")
	c.Add(7)
	h := NewHistogram("test_render_hist")
	h.Observe(100 * time.Nanosecond)
	RegisterGaugeProvider(func() []Gauge {
		return []Gauge{{Name: "test_render_gauge", Value: 4}}
	})

	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		`wolfc_func_invocations_total{func="sq",backend="closure"} 1`,
		`wolfc_func_fallbacks_total{func="sq",backend="closure"} 1`,
		`wolfc_func_aborts_total{func="sq",backend="closure"} 1`,
		`wolfc_backend_invocations_total{backend="closure"} 1`,
		"wolfc_test_render_metric_total 7",
		"wolfc_test_render_hist_ns_sum 100",
		"wolfc_test_render_hist_ns_count 1",
		`wolfc_test_render_hist_ns_bucket{le=`,
		"wolfc_test_render_gauge 4",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q\n%s", want, metrics)
		}
	}
	// The tensor runtime has no worker pool, so it has no gauges to render.
	if strings.Contains(metrics, "wolfc_pool_") {
		t.Errorf("/metrics renders worker-pool gauges\n%s", metrics)
	}
	funcs := get("/debug/funcs")
	for _, want := range []string{"sq [closure]", "invocations 1  fallbacks 1", "block 0: 1"} {
		if !strings.Contains(funcs, want) {
			t.Errorf("/debug/funcs missing %q\n%s", want, funcs)
		}
	}
}

// TestEngineGaugeCapAndRelease covers the per-engine gauge cardinality cap:
// registrations past maxEngineGauges are declined and counted on
// wolfc_obs_engine_gauges_dropped_total, release frees slots for new
// engines, and release is idempotent.
func TestEngineGaugeCapAndRelease(t *testing.T) {
	stats := func() (live, dropped int) {
		var buf bytes.Buffer
		RenderMetrics(&buf)
		for _, l := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(l, "wolfc_obs_engine_gauges_live "); ok {
				fmt.Sscan(v, &live)
			} else if v, ok := strings.CutPrefix(l, "wolfc_obs_engine_gauges_dropped_total "); ok {
				fmt.Sscan(v, &dropped)
			}
		}
		return live, dropped
	}
	baseLive := liveEngineGauges()
	_, baseDropped := stats()
	mk := func(id string) GaugeProvider {
		return func() []Gauge { return []Gauge{{Name: "test_gauge", Value: 1, Engine: id}} }
	}
	// Fill the registry to the cap.
	var releases []func()
	for i := baseLive; i < maxEngineGauges; i++ {
		releases = append(releases, RegisterEngineGauges(fmt.Sprintf("cap-%d", i), mk("x")))
	}
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	if live, _ := stats(); live != maxEngineGauges {
		t.Fatalf("live = %d, want %d", live, maxEngineGauges)
	}
	// Past the cap: declined, counted, provider not polled.
	rel := RegisterEngineGauges("over-cap", mk("over-cap"))
	if live, dropped := stats(); live != maxEngineGauges || dropped != baseDropped+1 {
		t.Fatalf("after over-cap: live = %d, dropped = %d (base %d)", live, dropped, baseDropped)
	}
	for _, g := range ProviderGauges() {
		if g.Engine == "over-cap" {
			t.Fatal("declined provider was polled")
		}
	}
	rel() // no-op release must not panic or free anything
	// Releasing a live slot makes room again.
	releases[0]()
	releases[0]() // idempotent
	if live, _ := stats(); live != maxEngineGauges-1 {
		t.Fatalf("after release: live = %d", live)
	}
	releases = append(releases, RegisterEngineGauges("refill", mk("refill")))
	if live, dropped := stats(); live != maxEngineGauges || dropped != baseDropped+1 {
		t.Fatalf("after refill: live = %d, dropped = %d", live, dropped)
	}
}

// TestReleaseEngineFuncs covers per-engine func-metric slots: scoped blocks
// carry their engine id, release unlists exactly that engine's blocks and
// frees registry capacity.
func TestReleaseEngineFuncs(t *testing.T) {
	ResetFuncRegistry()
	defer ResetFuncRegistry()
	RegisterFuncScoped("f", "closure", "eng-a")
	RegisterFuncScoped("g", "stencil", "eng-a")
	RegisterFuncScoped("f", "closure", "eng-b")
	RegisterFunc("h", "closure") // unscoped
	if snaps, _ := FuncSnapshots(); len(snaps) != 4 {
		t.Fatalf("snapshots = %d, want 4", len(snaps))
	}
	if n := ReleaseEngineFuncs("eng-a"); n != 2 {
		t.Fatalf("released %d blocks for eng-a, want 2", n)
	}
	snaps, _ := FuncSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("snapshots after release = %d, want 2", len(snaps))
	}
	for _, s := range snaps {
		if s.Engine == "eng-a" {
			t.Fatalf("eng-a block survived release: %+v", s)
		}
	}
	if n := ReleaseEngineFuncs(""); n != 0 {
		t.Fatalf("empty engine released %d blocks", n)
	}
}
