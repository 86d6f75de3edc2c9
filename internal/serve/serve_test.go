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

// TestMetricsEndpoint checks /metrics renders and carries serve counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	id := createSession(t, ts.URL)
	evalIn(t, ts.URL, id, "1 + 1")
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"wolfc_serve_evals", "wolfc_serve_sessions_created"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, body)
		}
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
