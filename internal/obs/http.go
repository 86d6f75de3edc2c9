// The live metrics endpoint: an expvar-style HTTP server exposing
// /metrics (text exposition, one `wolfc_*` line per counter/gauge),
// /debug/funcs (a human-readable per-function table with latency
// histograms and, for profiled functions, the hot-block table),
// /debug/traces (the recent-traces capture store as JSON or Chrome
// trace-event format), and the net/http/pprof profile handlers.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"
)

// MetricsServer is a running /metrics endpoint.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// ServeMetrics binds addr and serves /metrics and /debug/funcs in a
// background goroutine. Starting the endpoint enables metric recording.
func ServeMetrics(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics endpoint: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		RenderMetrics(w)
	})
	mux.HandleFunc("/debug/funcs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		RenderFuncs(w)
	})
	RegisterDebugHandlers(mux)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s := &MetricsServer{ln: ln, srv: srv}
	SetEnabled(true)
	go srv.Serve(ln)
	return s, nil
}

// RegisterDebugHandlers mounts /debug/traces and the net/http/pprof
// handlers on mux. Both the standalone metrics endpoint (ServeMetrics) and
// the serve layer's own mux use this, so traces and profiles are reachable
// wherever /metrics is.
func RegisterDebugHandlers(mux *http.ServeMux) {
	mux.HandleFunc("/debug/traces", TracesHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// TracesHandler serves the recent-traces capture store. Default output is
// JSON ({"capture_enabled", "count", "traces": [...]}, most recently
// updated trace first); ?format=chrome emits the Chrome trace-event format
// loadable in chrome://tracing or Perfetto; ?trace_id=<16 hex> narrows to
// one trace.
func TracesHandler(w http.ResponseWriter, r *http.Request) {
	traces := RecentTraces()
	if want := r.URL.Query().Get("trace_id"); want != "" {
		filtered := traces[:0]
		for _, t := range traces {
			if t.TraceID == want {
				filtered = append(filtered, t)
			}
		}
		traces = filtered
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		writeChromeTrace(w, traces)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"capture_enabled": TraceCaptureEnabled(),
		"count":           len(traces),
		"traces":          traces,
	})
}

// chromeEvent is one entry of the Chrome trace-event format ("X" complete
// spans with microsecond timestamps, "i" instants for fallbacks).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func writeChromeTrace(w io.Writer, traces []CapturedTrace) {
	// One Chrome "thread" lane per engine so concurrent tenants render as
	// parallel tracks; lane ids are assigned in first-seen order.
	lanes := map[string]int{}
	lane := func(engine string) int {
		if engine == "" {
			engine = "(process)"
		}
		id, ok := lanes[engine]
		if !ok {
			id = len(lanes) + 1
			lanes[engine] = id
		}
		return id
	}
	events := make([]chromeEvent, 0, 64)
	for _, t := range traces {
		for _, ev := range t.Events {
			name := ev.Type
			if ev.Name != "" {
				name = ev.Type + " " + ev.Name
			}
			ce := chromeEvent{
				Name: name,
				Cat:  ev.Type,
				TsUs: float64(ev.TNs) / 1e3,
				Pid:  1,
				Tid:  lane(ev.Engine),
				Args: map[string]any{
					"trace_id": ev.TraceID,
					"span_id":  ev.SpanID,
				},
			}
			if ev.ParentID != "" {
				ce.Args["parent_id"] = ev.ParentID
			}
			if ev.Backend != "" {
				ce.Args["backend"] = ev.Backend
			}
			if ev.CacheHit {
				ce.Args["cache_hit"] = true
			}
			if ev.Detail != "" {
				ce.Args["detail"] = ev.Detail
			}
			if ev.Type == "fallback" || ev.DurNs == 0 {
				ce.Ph = "i"
				ce.Scope = "t"
			} else {
				ce.Ph = "X"
				ce.DurUs = float64(ev.DurNs) / 1e3
			}
			events = append(events, ce)
		}
	}
	// Name the lanes with metadata events so the viewer shows engine ids.
	names := make([]string, 0, len(lanes))
	for eng := range lanes {
		names = append(names, eng)
	}
	sort.Strings(names)
	for _, eng := range names {
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: lanes[eng],
			Args: map[string]any{"name": "engine " + eng},
		})
	}
	json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}

// RenderMetrics writes the text exposition: per-function counters and
// latency histograms, global counters, named histograms (per-tier compile
// latency), labelled per-tenant vecs, and every registered gauge provider
// (the compile cache, the tier compile queue).
func RenderMetrics(w io.Writer) {
	snaps, overflow := FuncSnapshots()
	for _, s := range snaps {
		eng := ""
		if s.Engine != "" {
			eng = fmt.Sprintf(",engine=%q", sanitizeLabel(s.Engine))
		}
		lbl := fmt.Sprintf("{func=%q,backend=%q%s}", sanitizeLabel(shortName(s.Name)), s.Backend, eng)
		fmt.Fprintf(w, "wolfc_func_invocations_total%s %d\n", lbl, s.Invocations)
		fmt.Fprintf(w, "wolfc_func_fallbacks_total%s %d\n", lbl, s.Fallbacks)
		fmt.Fprintf(w, "wolfc_func_aborts_total%s %d\n", lbl, s.Aborts)
		fmt.Fprintf(w, "wolfc_func_latency_ns_sum%s %d\n", lbl, s.TotalNs)
		cum := uint64(0)
		for i, n := range s.Buckets {
			cum += n
			if n == 0 {
				continue // sparse exposition: only buckets that ever fired
			}
			fmt.Fprintf(w, "wolfc_func_latency_ns_bucket{func=%q,backend=%q%s,le=%q} %d\n",
				sanitizeLabel(shortName(s.Name)), s.Backend, eng, fmt.Sprint(BucketUpperNs(i)), cum)
		}
	}
	// Rendered unconditionally (not just when non-zero) so dashboards can
	// alert on the transition: a silently capped registry looks exactly
	// like a quiet one if the series only appears after the first drop.
	fmt.Fprintf(w, "wolfc_func_registry_overflow_total %d\n", overflow)
	// Per-backend rollup so dashboards don't need to aggregate labels.
	byBackend := map[string]*[3]uint64{}
	for _, s := range snaps {
		agg := byBackend[s.Backend]
		if agg == nil {
			agg = &[3]uint64{}
			byBackend[s.Backend] = agg
		}
		agg[0] += s.Invocations
		agg[1] += s.Fallbacks
		agg[2] += s.Aborts
	}
	backends := make([]string, 0, len(byBackend))
	for b := range byBackend {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	for _, b := range backends {
		agg := byBackend[b]
		fmt.Fprintf(w, "wolfc_backend_invocations_total{backend=%q} %d\n", b, agg[0])
		fmt.Fprintf(w, "wolfc_backend_fallbacks_total{backend=%q} %d\n", b, agg[1])
		fmt.Fprintf(w, "wolfc_backend_aborts_total{backend=%q} %d\n", b, agg[2])
	}
	for _, c := range Counters() {
		fmt.Fprintf(w, "wolfc_%s_total %d\n", c.Name(), c.Value())
	}
	for _, h := range Histograms() {
		s := h.Snapshot()
		fmt.Fprintf(w, "wolfc_%s_ns_sum %d\n", s.Name, s.TotalNs)
		fmt.Fprintf(w, "wolfc_%s_ns_count %d\n", s.Name, s.Count)
		cum := uint64(0)
		for i, n := range s.Buckets {
			cum += n
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "wolfc_%s_ns_bucket{le=%q} %d\n",
				s.Name, fmt.Sprint(BucketUpperNs(i)), cum)
		}
	}
	for _, cv := range CounterVecs() {
		lk := cv.Label()
		for _, p := range cv.Snapshot() {
			fmt.Fprintf(w, "wolfc_%s_total{%s=%q} %d\n", cv.Name(), lk, sanitizeLabel(p.Value), p.Count)
		}
		if ev := cv.Evictions(); ev > 0 {
			fmt.Fprintf(w, "wolfc_%s_series_evicted_total %d\n", cv.Name(), ev)
		}
	}
	for _, hv := range HistogramVecs() {
		lk := hv.Label()
		for _, p := range hv.Snapshot() {
			lbl := fmt.Sprintf("{%s=%q}", lk, sanitizeLabel(p.Value))
			fmt.Fprintf(w, "wolfc_%s_ns_sum%s %d\n", hv.Name(), lbl, p.TotalNs)
			fmt.Fprintf(w, "wolfc_%s_ns_count%s %d\n", hv.Name(), lbl, p.Count)
			cum := uint64(0)
			for i, n := range p.Buckets {
				cum += n
				if n == 0 {
					continue
				}
				fmt.Fprintf(w, "wolfc_%s_ns_bucket{%s=%q,le=%q} %d\n",
					hv.Name(), lk, sanitizeLabel(p.Value), fmt.Sprint(BucketUpperNs(i)), cum)
			}
		}
		if ev := hv.Evictions(); ev > 0 {
			fmt.Fprintf(w, "wolfc_%s_series_evicted_total %d\n", hv.Name(), ev)
		}
	}
	if d := TraceDropped(); d > 0 {
		fmt.Fprintf(w, "wolfc_trace_events_dropped_total %d\n", d)
	}
	for _, g := range ProviderGauges() {
		if g.Engine != "" {
			fmt.Fprintf(w, "wolfc_%s{engine=%q} %v\n", g.Name, sanitizeLabel(g.Engine), g.Value)
		} else {
			fmt.Fprintf(w, "wolfc_%s %v\n", g.Name, g.Value)
		}
	}
	live, dropped := EngineGaugeStats()
	fmt.Fprintf(w, "wolfc_obs_engine_gauges_live %d\n", live)
	_ = dropped // lifetime drops already render via the counter registry
}

// RenderFuncs writes the human-readable per-function table, most invoked
// first, with a compact latency histogram and any attached detail (the
// hot-block table of a ProfileLevel > 0 compile).
func RenderFuncs(w io.Writer) {
	snaps, overflow := FuncSnapshots()
	fmt.Fprintf(w, "compiled functions: %d registered", len(snaps))
	if overflow > 0 {
		fmt.Fprintf(w, " (+%d past registry cap)", overflow)
	}
	fmt.Fprintln(w)
	for _, s := range snaps {
		fmt.Fprintf(w, "\n%s [%s]\n", shortName(s.Name), s.Backend)
		fmt.Fprintf(w, "  invocations %d  fallbacks %d  aborts %d  mean %.0fns\n",
			s.Invocations, s.Fallbacks, s.Aborts, s.MeanNs())
		for i, n := range s.Buckets {
			if n == 0 {
				continue
			}
			fmt.Fprintf(w, "  latency < %s: %d\n", fmtBucketNs(BucketUpperNs(i)), n)
		}
		if s.Detail != "" {
			fmt.Fprintf(w, "%s", indent(s.Detail))
		}
	}
}

func fmtBucketNs(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2gs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2gms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2gµs", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}

func indent(s string) string {
	out := make([]byte, 0, len(s)+16)
	atStart := true
	for i := 0; i < len(s); i++ {
		if atStart {
			out = append(out, ' ', ' ')
			atStart = false
		}
		out = append(out, s[i])
		if s[i] == '\n' {
			atStart = true
		}
	}
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	return string(out)
}
