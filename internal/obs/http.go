// The live metrics endpoints: /metrics (text exposition, one `wolfc_*` line
// per counter/gauge), /debug/funcs (a human-readable per-function table with
// latency histograms and, for profiled functions, the hot-block table),
// /debug/traces (the recent-traces capture store as JSON or Chrome
// trace-event format), and the net/http/pprof profile handlers. Mount puts
// all of them on a mux: the standalone endpoint (ServeMetrics) and the
// serving layer's own mux both call it.
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

// ServeMetrics binds addr and serves every obs endpoint (Mount) in a
// background goroutine. Starting the endpoint enables metric recording.
func ServeMetrics(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics endpoint: %w", err)
	}
	mux := http.NewServeMux()
	Mount(mux)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	SetEnabled(true)
	go srv.Serve(ln)
	return &MetricsServer{ln: ln, srv: srv}, nil
}

// Mount puts /metrics, /debug/funcs, /debug/traces and the net/http/pprof
// handlers on mux, so traces and profiles are reachable wherever /metrics is.
func Mount(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		RenderMetrics(w)
	})
	mux.HandleFunc("/debug/funcs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		RenderFuncs(w)
	})
	mux.HandleFunc("/debug/traces", serveTraces)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// serveTraces serves the recent-traces capture store. Default output is
// JSON ({"capture_enabled", "count", "traces": [...]}, most recently
// updated trace first); ?format=chrome emits the Chrome trace-event format
// loadable in chrome://tracing or Perfetto; ?trace_id=<16 hex> narrows to
// one trace.
func serveTraces(w http.ResponseWriter, r *http.Request) {
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
// latency), labelled per-tenant histograms, and every registered gauge
// provider (the compile cache, the tier compile queue).
func RenderMetrics(w io.Writer) {
	snaps, overflow := FuncSnapshots()
	for _, s := range snaps {
		lbls := label("func", shortName(s.Name)) + "," + label("backend", s.Backend)
		if s.Engine != "" {
			lbls += "," + label("engine", s.Engine)
		}
		fmt.Fprintf(w, "wolfc_func_invocations_total{%s} %d\n", lbls, s.Count)
		fmt.Fprintf(w, "wolfc_func_fallbacks_total{%s} %d\n", lbls, s.Fallbacks)
		fmt.Fprintf(w, "wolfc_func_aborts_total{%s} %d\n", lbls, s.Aborts)
		// invocations_total is the count: the block renders no _count line.
		writeHist(w, "wolfc_func_latency_ns", lbls, s.Latency, false)
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
		agg[0] += s.Count
		agg[1] += s.Fallbacks
		agg[2] += s.Aborts
	}
	backends := make([]string, 0, len(byBackend))
	for b := range byBackend {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	for _, b := range backends {
		agg, l := byBackend[b], label("backend", b)
		fmt.Fprintf(w, "wolfc_backend_invocations_total{%s} %d\n", l, agg[0])
		fmt.Fprintf(w, "wolfc_backend_fallbacks_total{%s} %d\n", l, agg[1])
		fmt.Fprintf(w, "wolfc_backend_aborts_total{%s} %d\n", l, agg[2])
	}
	for _, c := range counters.list() {
		fmt.Fprintf(w, "wolfc_%s_total %d\n", c.name, c.Value())
	}
	for _, h := range histograms.list() {
		writeHist(w, "wolfc_"+h.name+"_ns", "", h.lat.snapshot(), true)
	}
	for _, hv := range histogramVecs.list() {
		for _, p := range hv.Snapshot() {
			writeHist(w, "wolfc_"+hv.name+"_ns", label(hv.label, p.Value), p.Latency, true)
		}
		if ev := hv.Evictions(); ev > 0 {
			fmt.Fprintf(w, "wolfc_%s_series_evicted_total %d\n", hv.name, ev)
		}
	}
	if d := TraceDropped(); d > 0 {
		fmt.Fprintf(w, "wolfc_trace_events_dropped_total %d\n", d)
	}
	for _, g := range ProviderGauges() {
		if g.Engine != "" {
			fmt.Fprintf(w, "wolfc_%s{%s} %v\n", g.Name, label("engine", g.Engine), g.Value)
		} else {
			fmt.Fprintf(w, "wolfc_%s %v\n", g.Name, g.Value)
		}
	}
	// Lifetime drops render through the counter registry
	// (wolfc_obs_engine_gauges_dropped_total).
	fmt.Fprintf(w, "wolfc_obs_engine_gauges_live %d\n", liveEngineGauges())
}

// writeHist writes one histogram's lines: <name>_sum, <name>_count when
// count is set, and a cumulative <name>_bucket line per bucket that ever
// fired (sparse exposition). lbls is the series' own label pairs, already
// rendered by label.
func writeHist(w io.Writer, name, lbls string, s Latency, count bool) {
	set, le := "", ""
	if lbls != "" {
		set, le = "{"+lbls+"}", lbls+","
	}
	fmt.Fprintf(w, "%s_sum%s %d\n", name, set, s.TotalNs)
	if count {
		fmt.Fprintf(w, "%s_count%s %d\n", name, set, s.Count)
	}
	cum := uint64(0)
	for i, n := range s.Buckets {
		cum += n
		if n != 0 {
			fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", name, le, BucketUpperNs(i), cum)
		}
	}
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
			s.Count, s.Fallbacks, s.Aborts, s.MeanNs())
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
