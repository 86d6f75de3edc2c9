package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// renderLines renders /metrics and keeps the lines that mention token, so a
// test pins its own series whatever else the process has registered.
func renderLines(token string) []string {
	var buf bytes.Buffer
	RenderMetrics(&buf)
	var out []string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, token) {
			out = append(out, l)
		}
	}
	return out
}

// TestExpositionPinned holds the exact /metrics lines of a fixed set of
// series: a function block, a counter, a named histogram, a labelled
// histogram past its capacity (so _overflow and _series_evicted_total
// render), and an engine gauge.
func TestExpositionPinned(t *testing.T) {
	ResetFuncRegistry()
	defer ResetFuncRegistry()
	m := RegisterFuncScoped("pinx_f", "pinx", "pinx-e")
	m.RecordInvoke(100 * time.Nanosecond)
	m.RecordInvoke(1000 * time.Nanosecond)
	m.RecordFallback()
	m.RecordAbort()
	NewCounter("pinx_ctr").Add(7)
	h := NewHistogram("pinx_hist")
	h.Observe(3 * time.Nanosecond)
	h.Observe(5 * time.Microsecond)
	hv := NewHistogramVec("pinx_hv", "engine", 2)
	hv.Observe("a", 100*time.Nanosecond)
	hv.Observe("b", 200*time.Nanosecond)
	hv.Observe("c", 300*time.Nanosecond) // evicts a
	release := RegisterEngineGauges("pinx-e", func() []Gauge {
		return []Gauge{{Name: "pinx_gauge", Value: 3, Engine: "pinx-e"}}
	})
	defer release()

	want := []string{
		`wolfc_func_invocations_total{func="pinx_f",backend="pinx",engine="pinx-e"} 2`,
		`wolfc_func_fallbacks_total{func="pinx_f",backend="pinx",engine="pinx-e"} 1`,
		`wolfc_func_aborts_total{func="pinx_f",backend="pinx",engine="pinx-e"} 1`,
		`wolfc_func_latency_ns_sum{func="pinx_f",backend="pinx",engine="pinx-e"} 1100`,
		`wolfc_func_latency_ns_bucket{func="pinx_f",backend="pinx",engine="pinx-e",le="128"} 1`,
		`wolfc_func_latency_ns_bucket{func="pinx_f",backend="pinx",engine="pinx-e",le="1024"} 2`,
		`wolfc_backend_invocations_total{backend="pinx"} 2`,
		`wolfc_backend_fallbacks_total{backend="pinx"} 1`,
		`wolfc_backend_aborts_total{backend="pinx"} 1`,
		`wolfc_pinx_ctr_total 7`,
		`wolfc_pinx_hist_ns_sum 5003`,
		`wolfc_pinx_hist_ns_count 2`,
		`wolfc_pinx_hist_ns_bucket{le="4"} 1`,
		`wolfc_pinx_hist_ns_bucket{le="8192"} 2`,
		`wolfc_pinx_hv_ns_sum{engine="b"} 200`,
		`wolfc_pinx_hv_ns_count{engine="b"} 1`,
		`wolfc_pinx_hv_ns_bucket{engine="b",le="256"} 1`,
		`wolfc_pinx_hv_ns_sum{engine="c"} 300`,
		`wolfc_pinx_hv_ns_count{engine="c"} 1`,
		`wolfc_pinx_hv_ns_bucket{engine="c",le="512"} 1`,
		`wolfc_pinx_hv_ns_sum{engine="_overflow"} 100`,
		`wolfc_pinx_hv_ns_count{engine="_overflow"} 1`,
		`wolfc_pinx_hv_ns_bucket{engine="_overflow",le="128"} 1`,
		`wolfc_pinx_hv_series_evicted_total 1`,
		`wolfc_pinx_gauge{engine="pinx-e"} 3`,
	}
	got := renderLines("pinx")
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("/metrics lines changed:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// unquoteLabel reads one label value from the text exposition, starting just
// past its opening quote: the format defines three escapes (\\, \" and \n),
// and anything else after a backslash is not a value the format can carry.
func unquoteLabel(t *testing.T, s string) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String()
		case '\\':
			i++
			switch {
			case i < len(s) && s[i] == '\\', i < len(s) && s[i] == '"':
				b.WriteByte(s[i])
			case i < len(s) && s[i] == 'n':
				b.WriteByte('\n')
			default:
				t.Fatalf("label value has an escape the text format does not define: %q", s)
			}
		default:
			b.WriteByte(s[i])
		}
	}
	t.Fatalf("label value is not closed: %q", s)
	return ""
}

// A label value is escaped once: a function whose source holds a quote, a
// backslash, a tab and a newline renders a func label that unescapes to its
// display name.
func TestLabelValuesEscapedOnce(t *testing.T) {
	ResetFuncRegistry()
	defer ResetFuncRegistry()
	src := "StringJoin[\"a\\b\", \"\t\", \"\n\"]"
	RegisterFuncScoped(src, "closure", "e\"1")
	var buf bytes.Buffer
	RenderMetrics(&buf)
	const prefix = `wolfc_func_invocations_total{func="`
	for _, l := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(l, prefix) {
			continue
		}
		rest := l[len(prefix):]
		if got := unquoteLabel(t, rest); got != shortName(src) {
			t.Fatalf("func label unescapes to %q, want %q (line %q)", got, shortName(src), l)
		}
		i := strings.Index(rest, `engine="`)
		if i < 0 {
			t.Fatalf("no engine label: %q", l)
		}
		if got := unquoteLabel(t, rest[i+len(`engine="`):]); got != "e\"1" {
			t.Fatalf("engine label unescapes to %q (line %q)", got, l)
		}
		return
	}
	t.Fatalf("no func series rendered:\n%s", buf.String())
}
