// Cardinality-bounded labelled metric series. HistogramVec is the
// per-tenant counterpart of Histogram: one logical metric fanned out over a
// single label (in practice engine/session id). Cardinality is the failure
// mode of labelled metrics in a multi-tenant process — thousands of
// short-lived sessions must not grow the scrape output or the registry
// without bound — so a vec holds at most `capacity` live series and evicts
// the least-recently-updated one into a permanent `_overflow` aggregate
// series instead of silently dropping observations. The sum over all series
// (including _overflow) therefore stays exact and monotonic; only the
// per-label attribution of cold tenants degrades.
//
// This is the one labelled family: a series' count is the number of
// observations under its label, so a labelled request counter is the
// histogram's _ns_count. A labelled counter that counts something else
// would be a second series type of this family, sharing its LRU and
// _overflow fold, not a second family.
package obs

import (
	"sort"
	"sync"
	"time"
)

// OverflowLabel is the label value under which evicted series aggregate.
const OverflowLabel = "_overflow"

// DefaultVecCapacity is the live-series bound used when a vec is created
// with capacity <= 0. Chosen well past the old 128-engine gauge cliff.
const DefaultVecCapacity = 512

type vecSeries struct {
	lat   latency
	touch uint64 // LRU clock at last update, guarded by the vec mutex
}

// HistogramVec is a latency histogram fanned out over one label.
type HistogramVec struct {
	name     string
	label    string
	capacity int

	mu       sync.Mutex
	clock    uint64
	series   map[string]*vecSeries
	overflow latency // observations folded from evicted series
	evicted  uint64  // lifetime eviction count
}

// NewHistogramVec registers a labelled histogram family. label is the label
// key (e.g. "engine"); capacity <= 0 selects DefaultVecCapacity. /metrics
// renders wolfc_<name>_ns_{sum,count,bucket}{<label>="<value>",...}.
func NewHistogramVec(name, label string, capacity int) *HistogramVec {
	if capacity <= 0 {
		capacity = DefaultVecCapacity
	}
	return histogramVecs.add(&HistogramVec{name: name, label: label, capacity: capacity, series: make(map[string]*vecSeries)})
}

// Observe records one duration under the series for value, creating (and if
// necessary evicting) as needed. A label equal to OverflowLabel lands in
// the aggregate.
func (hv *HistogramVec) Observe(value string, d time.Duration) {
	if hv == nil {
		return
	}
	hv.mu.Lock()
	defer hv.mu.Unlock()
	hv.clock++
	if value == OverflowLabel {
		hv.overflow.observe(d)
		return
	}
	s := hv.series[value]
	if s == nil {
		if len(hv.series) >= hv.capacity {
			hv.evictLocked()
		}
		s = &vecSeries{}
		hv.series[value] = s
	}
	s.lat.observe(d)
	s.touch = hv.clock
}

// evictLocked folds the least-recently-updated series into the overflow
// aggregate. Linear scan: eviction happens once per new tenant past the
// cap, not per observation.
func (hv *HistogramVec) evictLocked() {
	var victim string
	var oldest uint64 = ^uint64(0)
	for k, s := range hv.series {
		if s.touch < oldest {
			oldest, victim = s.touch, k
		}
	}
	if victim == "" {
		return
	}
	hv.overflow.fold(&hv.series[victim].lat)
	delete(hv.series, victim)
	hv.evicted++
}

// Evictions reports how many series this vec has folded into _overflow.
func (hv *HistogramVec) Evictions() uint64 {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	return hv.evicted
}

// VecHistPoint is one rendered series of a HistogramVec.
type VecHistPoint struct {
	Value string
	Latency
}

// Snapshot returns every live series sorted by label, with the _overflow
// aggregate appended last once any eviction or overflow observation
// happened (it renders even at zero then, so dashboards can see label loss).
func (hv *HistogramVec) Snapshot() []VecHistPoint {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	out := make([]VecHistPoint, 0, len(hv.series)+1)
	for k, s := range hv.series {
		out = append(out, VecHistPoint{k, s.lat.snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Value < out[j].Value })
	if hv.overflow.count.Load() > 0 || hv.evicted > 0 {
		out = append(out, VecHistPoint{OverflowLabel, hv.overflow.snapshot()})
	}
	return out
}
