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

	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode < 300 {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func createSession(t *testing.T, base string) string {
	t.Helper()
	var cr createResponse
	if code := doJSON(t, "POST", base+"/v1/sessions", nil, &cr); code != http.StatusCreated {
		t.Fatalf("create session: %d", code)
	}
	return cr.ID
}

func evalIn(t *testing.T, base, id, input string) evalResponse {
	t.Helper()
	var er evalResponse
	code := doJSON(t, "POST", fmt.Sprintf("%s/v1/sessions/%s/eval", base, id),
		evalRequest{Input: input}, &er)
	if code != http.StatusOK {
		t.Fatalf("eval %q in %s: %d", input, id, code)
	}
	return er
}

// TestSessionLifecycle covers create → eval → destroy → 404.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL)

	if er := evalIn(t, ts.URL, id, "2 + 3"); er.Value != "5" {
		t.Fatalf("eval = %+v", er)
	}
	// State persists across requests within a session.
	evalIn(t, ts.URL, id, "x = 41")
	if er := evalIn(t, ts.URL, id, "x + 1"); er.Value != "42" {
		t.Fatalf("x + 1 = %+v", er)
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+id, nil, nil); code != http.StatusNoContent {
		t.Fatalf("destroy: %d", code)
	}
	var eb errorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/eval", evalRequest{Input: "1"}, &eb); code != http.StatusNotFound {
		t.Fatalf("eval after destroy: %d", code)
	}
}

// TestSessionIsolation checks two sessions defining the same symbol see
// only their own definitions.
func TestSessionIsolation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	a := createSession(t, ts.URL)
	b := createSession(t, ts.URL)
	evalIn(t, ts.URL, a, "f[n_] := n + 1")
	evalIn(t, ts.URL, b, "f[n_] := n * 10")
	if er := evalIn(t, ts.URL, a, "f[5]"); er.Value != "6" {
		t.Fatalf("session a: f[5] = %s", er.Value)
	}
	if er := evalIn(t, ts.URL, b, "f[5]"); er.Value != "50" {
		t.Fatalf("session b: f[5] = %s", er.Value)
	}
}

// TestEvalTimeoutHTTP checks timeout_ms aborts a runaway evaluation and
// reports timed_out.
func TestEvalTimeoutHTTP(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL)
	var er evalResponse
	code := doJSON(t, "POST", fmt.Sprintf("%s/v1/sessions/%s/eval", ts.URL, id),
		evalRequest{Input: "While[True, 1]", TimeoutMS: 50}, &er)
	if code != http.StatusOK {
		t.Fatalf("timeout eval: %d", code)
	}
	if !er.TimedOut || er.Value != "$Aborted" {
		t.Fatalf("eval = %+v, want timed-out $Aborted", er)
	}
	// Session still works.
	if er := evalIn(t, ts.URL, id, "1 + 1"); er.Value != "2" {
		t.Fatalf("post-timeout: %+v", er)
	}
}

// TestHugeTimeoutIsCapped: a timeout_ms so large that it overflows a
// time.Duration in nanoseconds must still be held to MaxTimeout. The loop is
// compiled, so nothing but the deadline's abort stops it; should the request
// outlive the wait, the test aborts the session itself so the server can
// close.
func TestHugeTimeoutIsCapped(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxTimeout: 100 * time.Millisecond})
	id := createSession(t, ts.URL)
	evalIn(t, ts.URL, id, `spin = FunctionCompile[Function[{Typed[n, "MachineInteger"]}, Module[{i = 0}, While[True, i += n]; i]]]`)
	done := make(chan evalResponse, 1)
	go func() {
		// Not doJSON: t.Fatal must not run off the test goroutine.
		var er evalResponse
		body := `{"input": "spin[1]", "timeout_ms": 9223372036855}`
		if resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/eval", ts.URL, id), "application/json", strings.NewReader(body)); err == nil {
			json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
		}
		done <- er
	}()
	select {
	case er := <-done:
		if !er.TimedOut || er.Value != "$Aborted" {
			t.Fatalf("eval = %+v, want timed-out $Aborted", er)
		}
	case <-time.After(10 * time.Second):
		ses, _ := s.lookup(id)
		ses.eng.Abort()
		<-done
		t.Fatal("timeout_ms 9223372036855 escaped MaxTimeout 100ms: the compiled loop ran past 10s")
	}
}

// TestEvalRejectsTrailingData: a body holding a second request after the
// first is a bad request, and neither is evaluated.
func TestEvalRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL)
	for _, body := range []string{
		`{"input":"x = 1"}{"input":"x = 2"}`,
		`{"input":"x = 3"} garbage`,
		`{"input":"x = 4"}]`,
	} {
		resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/eval", ts.URL, id), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if er := evalIn(t, ts.URL, id, "x"); er.Value != "x" {
		t.Fatalf("x = %s after rejected bodies, want it unset", er.Value)
	}
}

// TestDecodeEvalBodyLimit: a body over maxEvalBody is refused even when
// its object ends inside the limit; one of exactly maxEvalBody is read.
func TestDecodeEvalBodyLimit(t *testing.T) {
	opts := Options{}.withDefaults()
	obj := `{"input":"1"}`
	pad := strings.Repeat(" ", maxEvalBody-len(obj))
	if _, _, err := decodeEval(strings.NewReader(obj+pad), opts); err != nil {
		t.Fatalf("a body of exactly %d bytes: %v", maxEvalBody, err)
	}
	if _, _, err := decodeEval(strings.NewReader(obj+pad+" "), opts); err == nil {
		t.Fatalf("a body of %d bytes was accepted", maxEvalBody+1)
	}
}

// FuzzDecodeEval holds decodeEval to json.Unmarshal, which accepts exactly
// one JSON value: the body is refused when Unmarshal refuses it, when its
// input is blank and when it is over maxEvalBody; otherwise the deadline is
// positive and within MaxTimeout.
func FuzzDecodeEval(f *testing.F) {
	for _, seed := range []string{
		`{"input": "spin[1]", "timeout_ms": 9223372036855}`,
		`{"input": "1", "timeout_ms": 0}`,
		`{"input": "1", "timeout_ms": -5}`,
		`{"input": "1", "timeout_ms": 9223372036854775807}`,
		`{"input": "1", "timeout_ms": 1.5}`,
		`{"input": "1", "input": "2", "timeout_ms": 1, "timeout_ms": 2}`,
		`{"input": 7}`,
		`{"input": "1"} trailing`,
		`{"input": "1+1"}{"input": "Quit[]"}`,
		`null`,
		` {"INPUT": " "} `,
	} {
		f.Add([]byte(seed))
	}
	opts := Options{DefaultTimeout: time.Second, MaxTimeout: time.Minute}
	f.Fuzz(func(t *testing.T, body []byte) {
		input, timeout, err := decodeEval(bytes.NewReader(body), opts)
		var req evalRequest
		wantErr := len(body) > maxEvalBody || json.Unmarshal(body, &req) != nil || strings.TrimSpace(req.Input) == ""
		if (err != nil) != wantErr {
			t.Fatalf("decodeEval(%q) = %v, want error %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if input != req.Input || timeout <= 0 || timeout > opts.MaxTimeout {
			t.Fatalf("decodeEval(%q) = %q, %v", body, input, timeout)
		}
	})
}

// TestAdmissionControl floods a MaxInflight=1 server with slow queries and
// expects 429s with Retry-After rather than queueing.
func TestAdmissionControl(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxInflight: 1})
	id := createSession(t, ts.URL)

	const n = 6
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(evalRequest{Input: "Do[i, {i, 1, 2000000}]", TimeoutMS: 10000})
			resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/eval", ts.URL, id),
				"application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	ok, busy := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			busy++
		default:
			t.Fatalf("unexpected status %d in %v", c, codes)
		}
	}
	if ok == 0 || busy == 0 {
		t.Fatalf("codes = %v, want a mix of 200 and 429", codes)
	}
}

// TestSessionLimit checks creation past MaxSessions answers 429.
func TestSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSessions: 2})
	createSession(t, ts.URL)
	createSession(t, ts.URL)
	var eb errorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", nil, &eb); code != http.StatusTooManyRequests {
		t.Fatalf("third create: %d", code)
	}
}

// TestBadRequests covers syntax errors, empty input, and unknown sessions.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL)
	var eb errorBody
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/sessions/%s/eval", ts.URL, id),
		evalRequest{Input: "1 +"}, &eb); code != http.StatusBadRequest {
		t.Fatalf("syntax error: %d", code)
	}
	if code := doJSON(t, "POST", fmt.Sprintf("%s/v1/sessions/%s/eval", ts.URL, id),
		evalRequest{Input: "   "}, &eb); code != http.StatusBadRequest {
		t.Fatalf("empty input: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/nope/eval",
		evalRequest{Input: "1"}, &eb); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d", code)
	}
}

// TestTieredServing drives one session hot enough to promote through the
// tiers over HTTP, checking results stay right across promotions.
func TestTieredServing(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Tiering: true,
		Tier:    core.TierPolicy{Threshold: 4, Workers: 1},
	})
	id := createSession(t, ts.URL)
	evalIn(t, ts.URL, id, "h[n_] := 3*n - 1")
	for round := 0; round < 6; round++ {
		for i := 1; i <= 4; i++ {
			want := fmt.Sprintf("%d", 3*i-1)
			if er := evalIn(t, ts.URL, id, fmt.Sprintf("h[%d]", i)); er.Value != want {
				t.Fatalf("round %d: h[%d] = %s, want %s", round, i, er.Value, want)
			}
		}
		// Drain background compiles so the next round dispatches compiled.
		s.mu.Lock()
		ses := s.sessions[id]
		s.mu.Unlock()
		ses.eng.WaitIdle()
	}
	s.mu.Lock()
	ses := s.sessions[id]
	s.mu.Unlock()
	st := ses.eng.Stats()
	if st.Promotions == 0 {
		t.Fatalf("definition never promoted over HTTP serving: %+v", st)
	}
}

// Sessions are isolated namespaces, each with a kernel and a compile-cache
// front of its own, and they share compiled code through the process's
// program table, with no artifact store configured: the first session to
// compile a kernel runs the pipeline, and every later session is served that
// program and compiles nothing. Counted here session by session; what the
// sharing is worth in time is the benchmark's tenant_coldstart.
func TestSessionsShareTheArtifactTier(t *testing.T) {
	core.ResetCompileCache()
	prev := core.SetArtifactStore(nil)
	defer core.SetArtifactStore(prev)
	defer core.ResetCompileCache()
	tableHits := func() float64 {
		for _, g := range obs.ProviderGauges() {
			if g.Name == "compile_cache_resident_hits_total" {
				return g.Value
			}
		}
		t.Fatal("no compile_cache_resident_hits_total gauge")
		return 0
	}

	kernels := []struct{ src, arg string }{
		{`Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i = i + 1]; s]]`, "10"},
		{`Function[{Typed[n, "MachineInteger"]}, Module[{a = n, b = 36, t = 0}, While[b != 0, t = Mod[a, b]; a = b; b = t]; a]]`, "120"},
		{`Function[{Typed[x, "Real64"]}, x/2.0 + 1.5]`, "3."},
	}
	srv, ts := newTestServer(t, Options{})
	var first []string
	var programs []*codegen.Program
	for ses := 0; ses < 4; ses++ {
		id := createSession(t, ts.URL)
		before := tableHits()
		var got []string
		for i, k := range kernels {
			evalIn(t, ts.URL, id, fmt.Sprintf("k%d = FunctionCompile[%s];", i, k.src))
			got = append(got, evalIn(t, ts.URL, id, fmt.Sprintf("k%d[%s]", i, k.arg)).Value)
		}
		served := int(tableHits() - before)
		// The session's own front hands back the function its k<i> holds.
		srv.mu.Lock()
		eng := srv.sessions[id].eng
		srv.mu.Unlock()
		var progs []*codegen.Program
		for _, k := range kernels {
			ccf, rep, err := eng.Compiler.FunctionCompileCachedRequest(parser.MustParse(k.src), core.CompileRequest{Collect: true})
			if err != nil || !rep.CacheHit {
				t.Fatalf("session %d: its function is not in its front: %+v, %v", ses+1, rep, err)
			}
			progs = append(progs, ccf.Program)
		}
		if ses == 0 {
			first, programs = got, progs
			if served != 0 {
				t.Fatalf("the first session must compile every kernel; the table served %d", served)
			}
			continue
		}
		if served != len(kernels) {
			t.Fatalf("session %d: the table served %d of %d kernels", ses+1, served, len(kernels))
		}
		for i := range kernels {
			if progs[i] != programs[i] {
				t.Fatalf("session %d compiled kernel %d instead of being served session 1's program", ses+1, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("session %d answered %v, the first %v", ses+1, got, first)
		}
	}
	if first[0] != "385" || first[1] != "12" {
		t.Fatalf("kernels answered %v", first)
	}
}

// TestMetricsEndpoint checks /metrics renders and carries serve counters, that
// an eval adds one to its session's eval-latency _count (the session's request
// count), and that serve mounts the obs endpoints with the one /metrics
// handler.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL)
	scrape := func() (body string, count int) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Errorf("/metrics Content-Type %q", ct)
		}
		prefix := fmt.Sprintf("wolfc_serve_eval_latency_ns_count{engine=%q} ", id)
		for _, l := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(l, prefix); ok {
				fmt.Sscan(v, &count)
			}
		}
		return string(raw), count
	}
	_, before := scrape()
	evalIn(t, ts.URL, id, "1 + 1")
	body, after := scrape()
	for _, want := range []string{"wolfc_serve_evals", "wolfc_serve_sessions_created"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
	}
	if after != before+1 {
		t.Errorf("engine %s's eval-latency count went %d -> %d over one eval:\n%s", id, before, after, body)
	}
	if strings.Contains(body, "wolfc_serve_eval_requests_total") {
		t.Errorf("/metrics renders the request counter the histogram's _count carries:\n%s", body)
	}
	funcs, err := http.Get(ts.URL + "/debug/funcs")
	if err != nil {
		t.Fatal(err)
	}
	funcs.Body.Close()
	if funcs.StatusCode != http.StatusOK {
		t.Errorf("/debug/funcs: %d", funcs.StatusCode)
	}
}

// TestServerClose destroys all sessions and refuses new ones.
func TestServerClose(t *testing.T) {
	s := NewServer(Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := createSession(t, ts.URL)
	s.Close()
	if n := s.SessionCount(); n != 0 {
		t.Fatalf("%d sessions survive Close", n)
	}
	var eb errorBody
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions", nil, &eb); code != http.StatusServiceUnavailable {
		t.Fatalf("create after Close: %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/sessions/"+id+"/eval",
		evalRequest{Input: "1"}, &eb); code != http.StatusNotFound {
		t.Fatalf("eval after Close: %d", code)
	}
	_ = time.Now() // keep time import if asserts change
}

// TestSessionIDsAreProcessUnique: a session id labels process-wide state
// (its eval-latency series, its engine's function blocks), so two Servers in
// one process hand out different ids, and destroying a session on one
// leaves the other's series and /debug/funcs entries in place.
func TestSessionIDsAreProcessUnique(t *testing.T) {
	_, tsA := newTestServer(t, Options{})
	_, tsB := newTestServer(t, Options{})
	idA, idB := createSession(t, tsA.URL), createSession(t, tsB.URL)
	if idA == idB {
		t.Fatalf("both servers named their first session %q", idA)
	}
	// A body no other test compiles, so /debug/funcs lists it only for
	// these two sessions.
	const body = "n*n + 41"
	def := `sq = FunctionCompile[Function[{Typed[n, "MachineInteger"]}, ` + body + `]]; sq[3]`
	for _, s := range []struct{ base, id string }{{tsA.URL, idA}, {tsB.URL, idB}} {
		if er := evalIn(t, s.base, s.id, def); er.Value != "50" {
			t.Fatalf("%s: sq[3] = %s, want 50", s.id, er.Value)
		}
	}
	blocks := func(engine string) int {
		snaps, _ := obs.FuncSnapshots()
		n := 0
		for _, s := range snaps {
			if s.Engine == engine {
				n++
			}
		}
		return n
	}
	get := func(path string) string {
		resp, err := http.Get(tsB.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	before := blocks(idB)
	if before == 0 {
		t.Fatalf("session %s compiled sq but registered no function block", idB)
	}
	if code := doJSON(t, "DELETE", tsA.URL+"/v1/sessions/"+idA, nil, nil); code != http.StatusNoContent {
		t.Fatalf("destroy %s: %d", idA, code)
	}
	if n := blocks(idA); n != 0 {
		t.Errorf("destroyed session %s still lists %d function blocks", idA, n)
	}
	if n := blocks(idB); n != before {
		t.Errorf("destroying %s on one server took session %s's function blocks from %d to %d", idA, idB, before, n)
	}
	if funcs := get("/debug/funcs"); !strings.Contains(funcs, body) {
		t.Errorf("/debug/funcs lost session %s's function:\n%s", idB, funcs)
	}
	series := fmt.Sprintf("wolfc_serve_eval_latency_ns_count{engine=%q} 1", idB)
	if metrics := get("/metrics"); !strings.Contains(metrics, series) {
		t.Errorf("/metrics lacks %s:\n%s", series, metrics)
	}
}
