package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wolfc/internal/artifact"
	"wolfc/internal/bench"
	"wolfc/internal/core"
	"wolfc/internal/obs"
	"wolfc/internal/serve"
)

// The -serve mode (ISSUE 8): a multi-tenant load suite against the real
// HTTP serving stack. For each session count S it stands up a fresh server
// (compile cache reset, fresh in-memory artifact store), creates S
// sessions, and drives every session through the same hot-query workload —
// each query applies a compiled kernel, so the first touch per session
// pays a compile and repeats hit the session's in-memory cache entries.
//
// The in-memory compile-cache front is keyed per registry (sessions are
// isolated namespaces), so cross-session sharing happens only through the
// registry-free stable-key artifact tier: the first session to compile a
// kernel pays the full pipeline, every later session gets a warm artifact
// load. On a single-core host that shared tier IS the aggregate speedup —
// 8 sessions' worth of queries cost one cold compile set plus 7 warm load
// sets, not 8 cold sets. Sessions start their query rotation at different
// offsets so concurrent first touches spread across kernels instead of
// piling onto one.
//
// Output: per-S aggregate throughput, request latency p50/p99, artifact
// hit rate, and the 8-vs-1 aggregate throughput ratio, written to
// BENCH_serve.json (gated >= 2x in scripts/verify.sh).

var (
	serveF        = flag.Bool("serve", false, "run the multi-tenant serving load suite against the in-process HTTP stack")
	serveOut      = flag.String("serve-out", "BENCH_serve.json", "output path for the -serve JSON document")
	serveSessions = flag.String("serve-sessions", "1,2,4,8", "session counts to sweep, comma-separated")
	serveRepeats  = flag.Int("serve-repeats", 3, "hot-query repeats per kernel per session")

	serveTraceGateF = flag.Bool("serve-trace-overhead", false,
		"interleaved serve-workload A/B with request tracing disabled vs armed-but-unsampled; exit nonzero beyond -threshold")
)

// serveCorpus is built from the compile-heavy slice of the coldstart
// corpus — kernels whose compile cost dwarfs a query's runtime, so the
// shared artifact tier has something real to amortise — widened to two
// source variants per kernel (a wrapper adding a distinct constant), which
// doubles the distinct stable keys the sessions share.
type serveKernel struct {
	name, src string
	arg       int64
}

var serveCorpus = buildServeCorpus()

func buildServeCorpus() []serveKernel {
	// Hot-query args are deliberately small: the point of a hot query is
	// the dispatch path (HTTP + parse + compiled apply), not the kernel's
	// O(n) loop body, and a big argument would just add per-query work
	// that scales with session count and buries the shared-compile win.
	heavy := []struct {
		idx    int
		hotArg int64
	}{
		{0, 8},   // mandelcount
		{1, 10},  // convgrid
		{2, 200}, // horner
		{3, 120}, // gcdsum
	}
	var out []serveKernel
	for _, h := range heavy {
		ent := bench.ColdstartKernels[h.idx]
		for v := 0; v < 2; v++ {
			out = append(out, serveKernel{
				name: fmt.Sprintf("%s/v%d", ent.Name, v),
				src: fmt.Sprintf(`Function[{Typed[k9, "MachineInteger"]}, (%s)[k9] + %d]`,
					ent.Src, v),
				arg: h.hotArg,
			})
		}
	}
	return out
}

type serveLatencies struct {
	mu sync.Mutex
	ns []float64
}

func (l *serveLatencies) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, float64(d.Nanoseconds()))
	l.mu.Unlock()
}

func (l *serveLatencies) percentile(p float64) float64 {
	if len(l.ns) == 0 {
		return 0
	}
	sorted := append([]float64(nil), l.ns...)
	sort.Float64s(sorted)
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

type serveRow struct {
	Sessions        int     `json:"sessions"`
	TotalQueries    int     `json:"total_queries"`
	WallNs          float64 `json:"wall_ns"`
	ThroughputQPS   float64 `json:"throughput_qps"`
	P50Ms           float64 `json:"p50_ms"`
	P99Ms           float64 `json:"p99_ms"`
	ArtifactHits    uint64  `json:"artifact_hits"`
	ArtifactMisses  uint64  `json:"artifact_misses"`
	ArtifactHitRate float64 `json:"artifact_hit_rate"`
	CacheHits       uint64  `json:"compile_cache_hits"`
	CacheMisses     uint64  `json:"compile_cache_misses"`
}

// serveClient drives one session's workload over real HTTP.
type serveClient struct {
	base   string
	client *http.Client
}

func (c *serveClient) post(path string, body any) (int, []byte, error) {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	resp, err := c.client.Post(c.base+path, "application/json", rd)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// serveRun measures one session-count configuration from a cold start.
func serveRun(nSessions, repeats int) (serveRow, error) {
	core.ResetCompileCache()
	store := artifact.OpenMemory()
	core.SetArtifactStore(store)
	cacheBase := core.CompileCacheStatsNow()

	srv := serve.NewServer(serve.Options{MaxSessions: nSessions + 1, MaxInflight: nSessions + 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	cl := &serveClient{base: ts.URL, client: ts.Client()}
	ids := make([]string, nSessions)
	for i := range ids {
		code, body, err := cl.post("/v1/sessions", nil)
		if err != nil || code != http.StatusCreated {
			return serveRow{}, fmt.Errorf("create session: %d %v", code, err)
		}
		var cr struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &cr); err != nil {
			return serveRow{}, err
		}
		ids[i] = cr.ID
	}

	// The first session to answer a kernel pins the expected value; every
	// later response must agree (cross-session result identity).
	var wantMu sync.Mutex
	want := make([]string, len(serveCorpus))

	lat := &serveLatencies{}
	errs := make(chan error, nSessions)
	var wg sync.WaitGroup
	start := time.Now()
	for si := 0; si < nSessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			eval := func(input string) (string, error) {
				t0 := time.Now()
				code, body, err := cl.post("/v1/sessions/"+ids[si]+"/eval",
					map[string]any{"input": input, "timeout_ms": 120000})
				lat.add(time.Since(t0))
				if err != nil || code != http.StatusOK {
					return "", fmt.Errorf("session %s: %d %v: %.60s", ids[si], code, err, body)
				}
				var er struct {
					Value string `json:"value"`
				}
				if err := json.Unmarshal(body, &er); err != nil {
					return "", err
				}
				return er.Value, nil
			}
			// Setup: bind each compiled kernel to a session symbol. This is
			// the per-session compile set — cold for the first session to
			// touch a kernel, a warm artifact load for everyone after.
			// Rotate the order per session so concurrent first touches
			// spread across the corpus instead of piling onto one kernel.
			for q := 0; q < len(serveCorpus); q++ {
				ki := (q + si) % len(serveCorpus)
				if _, err := eval(fmt.Sprintf("k%d = FunctionCompile[%s];", ki, serveCorpus[ki].src)); err != nil {
					errs <- err
					return
				}
			}
			// Hot queries: tiny inputs applying the bound compiled function.
			for r := 0; r < repeats; r++ {
				for q := 0; q < len(serveCorpus); q++ {
					ki := (q + si) % len(serveCorpus)
					ent := serveCorpus[ki]
					v, err := eval(fmt.Sprintf("k%d[%d]", ki, ent.arg))
					if err != nil {
						errs <- err
						return
					}
					wantMu.Lock()
					w := want[ki]
					if w == "" {
						want[ki] = v
					}
					wantMu.Unlock()
					if w != "" && v != w {
						errs <- fmt.Errorf("session %s: %s = %s, want %s (cross-session divergence)",
							ids[si], ent.name, v, w)
						return
					}
				}
			}
		}(si)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errs)
	for err := range errs {
		return serveRow{}, err
	}

	total := nSessions * (1 + repeats) * len(serveCorpus) // setup + hot queries
	st := store.Stats()
	cache := core.CompileCacheStatsNow()
	hitRate := 0.0
	if st.Hits+st.Misses > 0 {
		hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	return serveRow{
		Sessions:        nSessions,
		TotalQueries:    total,
		WallNs:          float64(wall.Nanoseconds()),
		ThroughputQPS:   float64(total) / wall.Seconds(),
		P50Ms:           lat.percentile(0.50) / 1e6,
		P99Ms:           lat.percentile(0.99) / 1e6,
		ArtifactHits:    st.Hits,
		ArtifactMisses:  st.Misses,
		ArtifactHitRate: hitRate,
		CacheHits:       cache.Hits - cacheBase.Hits,
		CacheMisses:     cache.Misses - cacheBase.Misses,
	}, nil
}

// serveTraceOverhead measures the per-request cost of the tracing layer on
// the serve hot-query path. Three modes, interleaved within one process so
// host wall-clock drift cancels (the same reasoning as obsOverheadGate):
//
//	off    — tracing fully disabled: no writer, no capture store
//	armed  — capture enabled but sampling rate 0: every request mints a
//	         span and threads it through engine/kernel/core, but every
//	         emission site sees a suppressed span and skips. This is the
//	         steady-state cost a production deployment pays for requests
//	         that lose the sampling coin flip.
//	on     — capture enabled, sampling rate 1: full emission, sharded
//	         buffers, collector, capture store.
//
// Returns best-of ns/query per mode. The armed/off ratio is the gated one:
// arming tracing must stay within the -threshold budget even though no
// events flow.
func serveTraceOverhead(reps int) (off, armed, on float64, err error) {
	core.ResetCompileCache()
	core.SetArtifactStore(artifact.OpenMemory())

	srv := serve.NewServer(serve.Options{MaxSessions: 2, MaxInflight: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	cl := &serveClient{base: ts.URL, client: ts.Client()}
	code, body, err := cl.post("/v1/sessions", nil)
	if err != nil || code != http.StatusCreated {
		return 0, 0, 0, fmt.Errorf("create session: %d %v", code, err)
	}
	var cr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		return 0, 0, 0, err
	}
	eval := func(input string) error {
		code, body, err := cl.post("/v1/sessions/"+cr.ID+"/eval",
			map[string]any{"input": input, "timeout_ms": 120000})
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("eval: %d %v: %.60s", code, err, body)
		}
		return nil
	}
	// Bind the corpus once; the timed passes only pay dispatch.
	for ki := range serveCorpus {
		if err := eval(fmt.Sprintf("k%d = FunctionCompile[%s];", ki, serveCorpus[ki].src)); err != nil {
			return 0, 0, 0, err
		}
	}
	queries := make([]string, len(serveCorpus))
	for ki, ent := range serveCorpus {
		queries[ki] = fmt.Sprintf("k%d[%d]", ki, ent.arg)
	}
	pass := func() (float64, error) {
		const perPass = 3
		t0 := time.Now()
		for r := 0; r < perPass; r++ {
			for _, q := range queries {
				if err := eval(q); err != nil {
					return 0, err
				}
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(perPass*len(queries)), nil
	}
	if _, err := pass(); err != nil { // warm HTTP keep-alives and caches
		return 0, 0, 0, err
	}

	defer func() {
		obs.DisableTraceCapture()
		obs.SetTraceSampling(1)
	}()
	off, armed, on = math.Inf(1), math.Inf(1), math.Inf(1)
	for rep := 0; rep < reps; rep++ {
		obs.DisableTraceCapture()
		obs.SetTraceSampling(1)
		ns, err := pass()
		if err != nil {
			return 0, 0, 0, err
		}
		off = math.Min(off, ns)

		obs.EnableTraceCapture(64)
		obs.SetTraceSampling(0)
		if ns, err = pass(); err != nil {
			return 0, 0, 0, err
		}
		armed = math.Min(armed, ns)

		obs.SetTraceSampling(1)
		if ns, err = pass(); err != nil {
			return 0, 0, 0, err
		}
		on = math.Min(on, ns)
	}
	return off, armed, on, nil
}

// serveTraceGate is the -serve-trace-overhead entry point: the armed-vs-off
// delta must stay within -threshold. Returns the process exit code.
func serveTraceGate() int {
	fmt.Println("=== Request-tracing overhead: serve hot queries, disabled vs armed (sampling 0) vs sampled, interleaved ===")
	off, armed, on, err := serveTraceOverhead(5)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -serve-trace-overhead:", err)
		return 1
	}
	deltaArmed := armed/off - 1
	deltaOn := on/off - 1
	verdict := "ok"
	if deltaArmed > *threshF {
		verdict = "REGRESSION"
	}
	fmt.Printf("per query: off %s  armed %s (%+.2f%%)  sampled %s (%+.2f%%)  [%s]\n",
		fmtNs(off), fmtNs(armed), deltaArmed*100, fmtNs(on), deltaOn*100, verdict)
	if deltaArmed > *threshF {
		fmt.Fprintf(os.Stderr, "wolfbench: -serve-trace-overhead: armed tracing costs more than %.0f%% per request\n",
			*threshF*100)
		return 1
	}
	return 0
}

// serveSuite is the -serve entry point; returns the process exit code.
func serveSuite() int {
	var counts []int
	for _, f := range strings.Split(*serveSessions, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "wolfbench: -serve-sessions: bad count %q\n", f)
			return 2
		}
		counts = append(counts, n)
	}

	fmt.Println("=== Multi-tenant serving: N isolated sessions, shared artifact tier ===")
	fmt.Printf("(%d kernels x %d repeats per session, in-memory artifact store)\n\n",
		len(serveCorpus), *serveRepeats)
	fmt.Printf("%9s %9s %12s %10s %10s %10s\n",
		"sessions", "queries", "agg q/s", "p50 ms", "p99 ms", "art. hits")

	rows := make([]serveRow, 0, len(counts))
	for _, n := range counts {
		row, err := serveRun(n, *serveRepeats)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wolfbench: -serve:", err)
			return 1
		}
		rows = append(rows, row)
		fmt.Printf("%9d %9d %12.1f %10.2f %10.2f %9.0f%%\n",
			row.Sessions, row.TotalQueries, row.ThroughputQPS, row.P50Ms, row.P99Ms,
			row.ArtifactHitRate*100)
	}

	ratio := 0.0
	var base, peak *serveRow
	for i := range rows {
		if rows[i].Sessions == 1 {
			base = &rows[i]
		}
		if peak == nil || rows[i].Sessions > peak.Sessions {
			peak = &rows[i]
		}
	}
	if base != nil && peak != nil && base != peak && base.ThroughputQPS > 0 {
		ratio = peak.ThroughputQPS / base.ThroughputQPS
		fmt.Printf("\naggregate throughput at %d sessions vs 1: %.2fx "+
			"(shared artifact tier amortises the compile set)\n", peak.Sessions, ratio)
	}

	// Tracing overhead on the same workload shape: what arming the span
	// pipeline (sampling 0) and full sampling cost per request, relative to
	// tracing compiled out of the request path entirely.
	off, armed, on, err := serveTraceOverhead(3)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -serve: trace overhead:", err)
		return 1
	}
	fmt.Printf("\ntracing per query: off %s  armed %s (%+.2f%%)  sampled %s (%+.2f%%)\n",
		fmtNs(off), fmtNs(armed), (armed/off-1)*100, fmtNs(on), (on/off-1)*100)

	doc := map[string]any{
		"suite":   "serve",
		"repeats": *serveRepeats,
		"kernels": len(serveCorpus),
		"rows":    rows,
		"trace_overhead": map[string]any{
			"off_ns_per_query":     off,
			"armed_ns_per_query":   armed,
			"sampled_ns_per_query": on,
			"armed_delta":          armed/off - 1,
			"sampled_delta":        on/off - 1,
		},
	}
	if ratio > 0 {
		doc["ratio_peak_vs_1"] = ratio
		doc["peak_sessions"] = peak.Sessions
	}
	f, err := os.Create(*serveOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -serve:", err)
		return 1
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return 1
	}
	if err := f.Close(); err != nil {
		return 1
	}
	fmt.Printf("\nwrote %s\n", *serveOut)
	return 0
}
