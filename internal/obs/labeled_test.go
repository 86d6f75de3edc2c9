package obs

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Observations of i+1 ns under five labels into a vec of capacity 3: the two
// oldest series fold into _overflow and no observation is lost.
func TestCounterVecEvictsIntoOverflow(t *testing.T) {
	hv := NewHistogramVec("test_cv_evict", "engine", 3)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			hv.Observe(fmt.Sprintf("e-%d", i), time.Nanosecond) // 1+2+3+4+5 = 15
		}
	}
	pts := hv.Snapshot()
	var total, overflow uint64
	var overflowSeen bool
	for _, p := range pts {
		total += p.Count
		if p.Value == OverflowLabel {
			overflowSeen, overflow = true, p.Count
		}
	}
	if total != 15 {
		t.Fatalf("eviction must not lose counts: sum %d want 15 (%+v)", total, pts)
	}
	if !overflowSeen || overflow != 1+2 {
		t.Fatalf("the two oldest series (1+2) should have folded into %s: %+v", OverflowLabel, pts)
	}
	if got := hv.Evictions(); got != 2 {
		t.Fatalf("evictions: got %d want 2", got)
	}
	// Live series are the 3 most recent.
	live := 0
	for _, p := range pts {
		if p.Value != OverflowLabel {
			live++
		}
	}
	if live != 3 {
		t.Fatalf("live series: got %d want 3", live)
	}
}

func TestCounterVecLRUTouch(t *testing.T) {
	hv := NewHistogramVec("test_cv_lru", "engine", 2)
	hv.Observe("a", time.Nanosecond)
	hv.Observe("b", time.Nanosecond)
	hv.Observe("a", time.Nanosecond) // refresh a: b becomes the LRU victim
	hv.Observe("c", time.Nanosecond)
	for _, p := range hv.Snapshot() {
		if p.Value == "b" {
			t.Fatalf("b should have been evicted, a touched: %+v", hv.Snapshot())
		}
	}
}
func TestHistogramVecEvictsIntoOverflow(t *testing.T) {
	hv := NewHistogramVec("test_hv_evict", "engine", 2)
	hv.Observe("a", time.Microsecond)
	hv.Observe("b", 2*time.Microsecond)
	hv.Observe("c", 4*time.Microsecond) // evicts a
	pts := hv.Snapshot()
	var count uint64
	var overflowPt *VecHistPoint
	for i, p := range pts {
		count += p.Count
		if p.Value == OverflowLabel {
			overflowPt = &pts[i]
		}
	}
	if count != 3 {
		t.Fatalf("observations lost across eviction: %d want 3", count)
	}
	if overflowPt == nil || overflowPt.Count != 1 || overflowPt.TotalNs != uint64(time.Microsecond.Nanoseconds()) {
		t.Fatalf("a's observation should live in %s: %+v", OverflowLabel, pts)
	}
	// Bucket mass survives the fold.
	var bsum uint64
	for _, n := range overflowPt.Buckets {
		bsum += n
	}
	if bsum != 1 {
		t.Fatalf("overflow bucket mass: %d want 1", bsum)
	}
}

// TestHistogramVecDefaultCapacityPast128 pins the acceptance criterion:
// the default capacity holds well past the old 128-engine gauge cliff, so
// >128 engines all keep their own labelled series.
func TestHistogramVecDefaultCapacityPast128(t *testing.T) {
	hv := NewHistogramVec("test_hv_cap", "engine", 0)
	const engines = 200
	for i := 0; i < engines; i++ {
		hv.Observe(fmt.Sprintf("s-%d", i), time.Millisecond)
	}
	pts := hv.Snapshot()
	if len(pts) != engines {
		t.Fatalf("got %d series, want %d distinct (no overflow below capacity)", len(pts), engines)
	}
	for _, p := range pts {
		if p.Value == OverflowLabel {
			t.Fatalf("no eviction should happen below DefaultVecCapacity: %+v", p)
		}
	}
	if hv.Evictions() != 0 {
		t.Fatalf("evictions below capacity: %d", hv.Evictions())
	}
}

func TestRenderMetricsIncludesVecs(t *testing.T) {
	hv := NewHistogramVec("test_render_hv", "engine", 2)
	hv.Observe("x1", time.Millisecond)
	hv.Observe("x2", time.Millisecond)
	hv.Observe("s-1", time.Millisecond) // evicts x1 so _overflow renders
	var buf bytes.Buffer
	RenderMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		`wolfc_test_render_hv_ns_count{engine="s-1"} 1`,
		`wolfc_test_render_hv_ns_sum{engine="s-1"} 1000000`,
		`wolfc_test_render_hv_ns_bucket{engine="s-1",le=`,
		`wolfc_test_render_hv_ns_count{engine="_overflow"} 1`,
		`wolfc_test_render_hv_series_evicted_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics exposition missing %q:\n%s", want, out)
		}
	}
}
