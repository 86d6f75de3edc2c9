package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"strings"
	"time"

	"wolfc/internal/artifact"
	"wolfc/internal/core"
	"wolfc/internal/serve"
)

// testServer is the serving stack as wolfserve assembles it: serve.Server
// with tiering on (wolfserve's policy: threshold 50, one compile worker per
// session) behind a loopback HTTP listener, over a process-wide memory
// artifact store.
type testServer struct {
	srv  *serve.Server
	ts   *httptest.Server
	prev *artifact.Store
}

func newTestServer(clients int) *testServer {
	core.ResetCompileCache()
	prev := core.SetArtifactStore(artifact.OpenMemory())
	srv := serve.NewServer(serve.Options{
		MaxSessions: 4 * clients, MaxInflight: 4 * clients,
		Tiering: true, Tier: core.TierPolicy{Threshold: 50, Workers: 1},
	})
	return &testServer{srv: srv, ts: httptest.NewServer(srv.Handler()), prev: prev}
}

func (s *testServer) close() {
	s.ts.Close()
	s.srv.Close()
	core.SetArtifactStore(s.prev)
	core.ResetCompileCache()
}

// httpClient is one caller: one keep-alive connection, one request at a
// time.
type httpClient struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

func (c *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

func (c *httpClient) createSession() (string, error) {
	code, body, err := c.do("POST", "/v1/sessions", nil)
	if err != nil || code != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %v", code, err)
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return "", err
	}
	return r.ID, nil
}

func (c *httpClient) destroySession(id string) error {
	code, _, err := c.do("DELETE", "/v1/sessions/"+id, nil)
	if err != nil || code != http.StatusNoContent {
		return fmt.Errorf("destroy session %s: status %d: %v", id, code, err)
	}
	return nil
}

func evalBody(input string) []byte {
	b, _ := json.Marshal(map[string]any{"input": input, "timeout_ms": 20000})
	return b
}

// eval posts one eval request and returns the printed value. Anything but
// a 200 with a decodable body (an error, a 429 refusal, a timeout) is an
// error, and the caller counts it as a failed operation.
func (c *httpClient) eval(session string, body []byte) (string, error) {
	code, resp, err := c.do("POST", "/v1/sessions/"+session+"/eval", body)
	if err != nil {
		return "", err
	}
	if code != http.StatusOK {
		return "", fmt.Errorf("eval: status %d: %.80s", code, resp)
	}
	var r struct {
		Value    string `json:"value"`
		TimedOut bool   `json:"timed_out"`
	}
	if err := json.Unmarshal(resp, &r); err != nil {
		return "", err
	}
	if r.TimedOut {
		return "", fmt.Errorf("eval: timed out")
	}
	return r.Value, nil
}

// metricsCounters reads the wolfc_tier_* and wolfc_serve_* counters off the
// server's own /metrics page: the only view of tier activity a client has.
func (c *httpClient) metricsCounters() (map[string]float64, error) {
	code, body, err := c.do("GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "wolfc_tier_") && !strings.HasPrefix(line, "wolfc_serve_") {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out, nil
}

// Query classes of serve_hot.
const (
	classCCF      = iota // call of an explicit FunctionCompile kernel bound to a session symbol
	classTiered          // call of a DownValues function the tiers have promoted
	classSymbolic        // symbolic derivative: must stay on the interpreter
	numClasses
)

var classNames = [numClasses]string{"ccf", "tiered", "symbolic"}

type query struct {
	class int
	input string
	body  []byte
	want  string
}

// sessionDefines returns the inputs that set a session up: the chosen
// kernels bound to k<i>, and the gfib, dot2 and diff definitions.
func sessionDefines(kernels []int) []string {
	var defs []string
	for _, i := range kernels {
		defs = append(defs, fmt.Sprintf("k%d = FunctionCompile[%s];", i, serveKernelSource(i)))
	}
	for _, f := range []string{"gfib", "dot2", "deriv"} {
		defs = append(defs, sourceText(f))
	}
	return defs
}

// downValueQueries lists the calls of gfib and of dot2 with their expected
// values.
func downValueQueries(want map[string]string) (gfib, dot2 []query) {
	for _, n := range gfibArgs {
		in := gfibQuery(n)
		gfib = append(gfib, query{class: classTiered, input: in, body: evalBody(in), want: want[in]})
	}
	for _, a := range dot2Args {
		in := dot2Query(a)
		dot2 = append(dot2, query{class: classTiered, input: in, body: evalBody(in), want: want[in]})
	}
	return gfib, dot2
}

// queryPools lists every query of each class with its expected value.
func queryPools(kernels []int) ([numClasses][]query, error) {
	var pools [numClasses][]query
	want, err := expectedQueries()
	if err != nil {
		return pools, err
	}
	for _, i := range kernels {
		for _, a := range serveKernelArgs(i) {
			in := fmt.Sprintf("k%d[%d]", i, a)
			pools[classCCF] = append(pools[classCCF], query{class: classCCF, input: in, body: evalBody(in), want: want[serveQueryKey(i, a)]})
		}
	}
	gfib, dot2 := downValueQueries(want)
	pools[classTiered] = append(gfib, dot2...)
	for _, d := range derivs {
		pools[classSymbolic] = append(pools[classSymbolic], query{class: classSymbolic, input: d, body: evalBody(d), want: want[d]})
	}
	for _, p := range pools {
		for _, q := range p {
			if q.want == "" {
				return pools, fmt.Errorf("expected/queries.txt has no line for %q", q.input)
			}
		}
	}
	return pools, nil
}

// queryStream draws n queries: 70% ccf, 20% tiered, 10% symbolic.
func queryStream(rng *rand.Rand, pools [numClasses][]query, n int) []query {
	out := make([]query, n)
	for i := range out {
		class := classCCF
		switch r := rng.Intn(10); {
		case r == 9:
			class = classSymbolic
		case r >= 7:
			class = classTiered
		}
		out[i] = pools[class][rng.Intn(len(pools[class]))]
	}
	return out
}

func allKernels() []int {
	out := make([]int, serveKernels)
	for i := range out {
		out[i] = i
	}
	return out
}

// serveHot is the hot-query workload: GOMAXPROCS callers, each with one
// session and one connection, each waiting for a reply before sending the
// next query (a session is a REPL). Everything is compiled and promoted
// before the window opens, so a query costs HTTP, JSON, admission, parse,
// kernel evaluation, tier dispatch, unbox/box and printing, and almost no
// compiled-body time.
type serveHot struct {
	*testServer
	cl      []*httpClient
	session []string
	stream  [][]query
}

const streamLen = 4096

func newServeHot(seed int64) (workload, error) {
	n := goruntime.GOMAXPROCS(0)
	w := &serveHot{testServer: newTestServer(n)}
	pools, err := queryPools(allKernels())
	if err != nil {
		w.close()
		return nil, err
	}
	for c := 0; c < n; c++ {
		cl := newHTTPClient(w.ts.URL)
		w.cl = append(w.cl, cl)
		id, err := cl.createSession()
		if err != nil {
			w.close()
			return nil, err
		}
		w.session = append(w.session, id)
		for _, d := range sessionDefines(allKernels()) {
			if _, err := cl.eval(id, evalBody(d)); err != nil {
				w.close()
				return nil, err
			}
		}
		w.stream = append(w.stream, queryStream(rand.New(rand.NewSource(seed*31+int64(c))), pools, streamLen))
	}
	if err := w.warm(pools); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// tierCounters are the /metrics series that move when a definition changes
// tier.
var tierCounters = []string{
	"wolfc_tier_promotions_total", "wolfc_tier_upgrades_total",
	"wolfc_tier_compile_failures_total", "wolfc_tier_retires_total",
}

// warm runs every query of every pool in every session until gfib and dot2
// are promoted in each session and two further passes leave the server's
// tier counters unchanged: every queued tier compile has then landed.
func (w *serveHot) warm(pools [numClasses][]query) error {
	start, err := w.cl[0].metricsCounters()
	if err != nil {
		return err
	}
	last := start
	for pass, stable := 0, 0; stable < 2; pass++ {
		if pass > 200 {
			return fmt.Errorf("serve_hot: tier counters still moving after %d warm-up passes", pass)
		}
		for c, cl := range w.cl {
			for _, pool := range pools {
				for _, q := range pool {
					got, err := cl.eval(w.session[c], q.body)
					if err != nil {
						return err
					}
					if got != q.want {
						return fmt.Errorf("serve_hot: %s = %s, expected %s", q.input, got, q.want)
					}
				}
			}
		}
		time.Sleep(2 * time.Millisecond) // let a queued tier compile install
		now, err := w.cl[0].metricsCounters()
		if err != nil {
			return err
		}
		same := true
		for _, k := range tierCounters {
			same = same && now[k] == last[k]
		}
		promoted := now["wolfc_tier_promotions_total"] - start["wolfc_tier_promotions_total"]
		if same && promoted >= float64(2*len(w.cl)) {
			stable++
		} else {
			stable = 0
		}
		last = now
	}
	return nil
}

func (w *serveHot) rows() []string { return classNames[:] }
func (w *serveHot) clients() int   { return len(w.cl) }

func (w *serveHot) close() {
	for _, cl := range w.cl {
		cl.close()
	}
	w.testServer.close()
}

func (w *serveHot) op(c, i int, tr *tracer) (int, int64, bool) {
	q := w.stream[c][i%streamLen]
	var got string
	var err error
	ns := tr.in("serve.http."+classNames[q.class], -1, int64(c)<<32|int64(i), func(int) {
		got, err = w.cl[c].eval(w.session[c], q.body)
	})
	return q.class, ns, err == nil && got == q.want
}
