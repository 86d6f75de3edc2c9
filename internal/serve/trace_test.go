package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wolfc/internal/core"
	"wolfc/internal/obs"
)

// findLinkedCompile scans the capture store for a trace holding both a
// serve root for session id and a compile event parented on that root.
func findLinkedCompile(id string) (root, compile *obs.TraceEvent) {
	for _, tr := range obs.RecentTraces() {
		var r *obs.TraceEvent
		for i, ev := range tr.Events {
			if ev.Type == "serve" && ev.Name == id {
				r = &tr.Events[i]
				break
			}
		}
		if r == nil {
			continue
		}
		for i, ev := range tr.Events {
			if ev.Type == "compile" && ev.ParentID == r.SpanID {
				return r, &tr.Events[i]
			}
		}
	}
	return nil, nil
}

// TestTraceLinksServeToCompile pins the ISSUE 9 acceptance criterion: a
// single wolfserve eval that triggers a background tier compile yields one
// trace tree whose compile span carries the originating request's trace id
// and engine label.
func TestTraceLinksServeToCompile(t *testing.T) {
	obs.EnableTraceCapture(64)
	defer obs.DisableTraceCapture()

	_, ts := newTestServer(t, Options{
		Tiering: true,
		Tier:    core.TierPolicy{Threshold: 2, Workers: 1},
	})
	id := createSession(t, ts.URL)
	evalIn(t, ts.URL, id, "f[n_] := n*n*n")
	// Two invocations cross the promotion threshold; the second request's
	// span rides the queued background compile.
	for i := 0; i < 3; i++ {
		evalIn(t, ts.URL, id, "f[4]")
	}

	// The tier compile is asynchronous: poll the capture store for the
	// linked tree rather than sleeping a fixed amount.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if root, compile := findLinkedCompile(id); compile != nil {
			if compile.TraceID != root.TraceID {
				t.Fatalf("compile span left the request trace: %q vs %q", compile.TraceID, root.TraceID)
			}
			if compile.Engine != id {
				t.Fatalf("compile span engine label: got %q want %q", compile.Engine, id)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no serve→compile span tree for %s within deadline; traces: %+v", id, obs.RecentTraces())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTraceTreesDisjointAcrossEngines evaluates concurrently in two
// sessions and checks every captured trace stays inside one engine: no
// trace mixes two engine labels, and each engine owns at least one tree.
func TestTraceTreesDisjointAcrossEngines(t *testing.T) {
	obs.EnableTraceCapture(256)
	defer obs.DisableTraceCapture()

	_, ts := newTestServer(t, Options{
		Tiering: true,
		Tier:    core.TierPolicy{Threshold: 2, Workers: 1},
	})
	ids := []string{createSession(t, ts.URL), createSession(t, ts.URL)}

	defs := []string{"g[n_] := n + 1", "h[n_] := n - 1"}
	calls := []string{"g[2]", "h[2]"}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(id, def, call string) {
			defer wg.Done()
			evalIn(t, ts.URL, id, def)
			for j := 0; j < 8; j++ {
				evalIn(t, ts.URL, id, call)
			}
		}(id, defs[i], calls[i])
	}
	wg.Wait()

	seenEngine := map[string]bool{}
	for _, tr := range obs.RecentTraces() {
		engines := map[string]bool{}
		for _, ev := range tr.Events {
			if ev.Engine != "" {
				engines[ev.Engine] = true
				seenEngine[ev.Engine] = true
			}
		}
		if len(engines) > 1 {
			t.Fatalf("trace %s mixes engines %v: %+v", tr.TraceID, engines, tr.Events)
		}
	}
	for _, id := range ids {
		if !seenEngine[id] {
			t.Fatalf("no trace tree labelled for session %s", id)
		}
	}

	// The per-engine labelled series kept both sessions distinct too.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, id := range ids {
		want := fmt.Sprintf("wolfc_serve_eval_latency_ns_count{engine=%q}", id)
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing per-engine latency series %s", want)
		}
	}
}

// TestDebugTracesEndpoint exercises the HTTP surface: JSON listing,
// ?trace_id filter, and the Chrome trace-event export.
func TestDebugTracesEndpoint(t *testing.T) {
	obs.EnableTraceCapture(64)
	defer obs.DisableTraceCapture()

	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL)
	evalIn(t, ts.URL, id, "1 + 1")

	resp, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		CaptureEnabled bool                `json:"capture_enabled"`
		Count          int                 `json:"count"`
		Traces         []obs.CapturedTrace `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	if !listing.CaptureEnabled || listing.Count == 0 {
		t.Fatalf("expected captured traces: %+v", listing)
	}
	tid := listing.Traces[0].TraceID

	// Filter by trace id.
	resp2, err := http.Get(ts.URL + "/debug/traces?trace_id=" + tid)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Count != 1 || listing.Traces[0].TraceID != tid {
		t.Fatalf("trace_id filter: %+v", listing)
	}

	// Chrome export wraps the event array in the standard envelope.
	resp3, err := http.Get(ts.URL + "/debug/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&chrome); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}
}

// TestTraceResumeHeader checks X-Trace-Id in stitches the response into the
// caller-supplied trace and echoes the id back.
func TestTraceResumeHeader(t *testing.T) {
	obs.EnableTraceCapture(64)
	defer obs.DisableTraceCapture()

	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL)

	const tid = "00000000deadbeef"
	body, _ := json.Marshal(evalRequest{Input: "2 + 2"})
	req, _ := http.NewRequest("POST", fmt.Sprintf("%s/v1/sessions/%s/eval", ts.URL, id), bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", tid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != tid {
		t.Fatalf("X-Trace-Id echo: got %q want %q", got, tid)
	}
	found := false
	for _, tr := range obs.RecentTraces() {
		if tr.TraceID == tid {
			found = true
		}
	}
	if !found {
		t.Fatalf("resumed trace %s not captured: %+v", tid, obs.RecentTraces())
	}
}

// TestIdleEviction checks the janitor evicts idle sessions and leaves busy
// or fresh ones alone, and that the evicted counter and gauge move.
func TestIdleEviction(t *testing.T) {
	s, ts := newTestServer(t, Options{IdleTimeout: 60 * time.Millisecond})
	id := createSession(t, ts.URL)
	evalIn(t, ts.URL, id, "1 + 2")

	deadline := time.Now().Add(5 * time.Second)
	for s.SessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session %s not evicted; count %d", id, s.SessionCount())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The slot is really gone from the API's point of view.
	var er evalResponse
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/sessions/%s/eval", ts.URL, id),
		evalRequest{Input: "1"}, &er); code != http.StatusNotFound {
		t.Fatalf("eval after eviction: %d want 404", code)
	}
}

// TestEvictIdleSkipsBusy drives evictIdle directly: a session marked busy
// must survive any cutoff.
func TestEvictIdleSkipsBusy(t *testing.T) {
	s, ts := newTestServer(t, Options{IdleTimeout: time.Millisecond})
	id := createSession(t, ts.URL)
	ses, ok := s.lookup(id)
	if !ok {
		t.Fatal("lookup failed")
	}
	ses.mu.Lock()
	ses.busy++
	ses.mu.Unlock()
	if n := s.evictIdle(time.Now().Add(time.Hour)); n != 0 {
		t.Fatalf("evicted a busy session: %d", n)
	}
	ses.mu.Lock()
	ses.busy--
	ses.mu.Unlock()
	if n := s.evictIdle(time.Now().Add(time.Hour)); n != 1 {
		t.Fatalf("idle session should go: evicted %d", n)
	}
	if s.SessionCount() != 0 {
		t.Fatalf("count after eviction: %d", s.SessionCount())
	}
}

// Arming the span pipeline costs a request a fixed number of allocations and
// no events. With capture on and sampling at 0 every request still mints a
// span and threads it to the engine, but every emission site sees a
// suppressed one and skips; so hot requests through the handler put nothing
// into either sink, and one request allocates exactly spanMintAllocs more than
// with tracing off. A count that repeats, where a time ratio on a shared host
// does not (the ratio itself is the benchmark's obs.armed_overhead_ratio).
func TestArmedTracingEmitsNothingAndAllocatesAConstant(t *testing.T) {
	// Two to put the span in the request's context (the boxed span, the
	// context node), three for the X-Trace-Id header (the id boxed for
	// Sprintf, the string, the header's value slice), and two for the kernel's
	// span slot (boxed in on entry, the empty one boxed in on exit).
	const spanMintAllocs = 7

	s := NewServer(Options{})
	defer s.Close()
	h := s.Handler()
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec
	}
	var cr createResponse
	if err := json.Unmarshal(post("/v1/sessions", "").Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	evalPath := "/v1/sessions/" + cr.ID + "/eval"
	post(evalPath, `{"input": "k = FunctionCompile[Function[{Typed[n, \"MachineInteger\"]}, n*n + 1]];"}`)
	hot := func() {
		if rec := post(evalPath, `{"input": "k[8]"}`); !strings.Contains(rec.Body.String(), `"value":"65"`) {
			t.Fatalf("hot query answered %d %s", rec.Code, rec.Body)
		}
	}
	hot()
	off := testing.AllocsPerRun(200, hot)

	var sink bytes.Buffer
	obs.SetTraceWriter(&sink)
	obs.EnableTraceCapture(64)
	obs.SetTraceSampling(0)
	defer func() {
		obs.SetTraceSampling(1)
		obs.DisableTraceCapture()
		obs.SetTraceWriter(nil)
	}()
	hot()
	armed := testing.AllocsPerRun(200, hot)
	obs.FlushTrace()
	if sink.Len() != 0 || len(obs.RecentTraces()) != 0 {
		t.Fatalf("suppressed requests emitted events: %q, %d captured traces", sink.String(), len(obs.RecentTraces()))
	}
	if raceEnabled {
		return // sync.Pool drops items at random under the race detector, so fmt's printers are allocated anew now and then
	}
	if armed-off != spanMintAllocs {
		t.Fatalf("a request allocates %v times with tracing off and %v armed: the span mint costs %v, want %d",
			off, armed, armed-off, spanMintAllocs)
	}
}
