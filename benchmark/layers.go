package main

import (
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"
)

// The per-layer suite behind -trace 1. Every layer is measured from
// outside, by timing calls into its public functions from this package;
// the system records nothing for us. Compile-side layers nest in time, so
// their spans give self times directly. Run-side layers do not nest in
// code we can reach, so they are measured as a ladder: the same seeded
// queries replayed at each depth (HTTP round trip, handler call, engine
// eval, parse, kernel run), a layer's own cost being its rung minus the
// next one down.
//
// The suite is the same whatever -workload names; only
// trace_overhead_ratio is taken on that workload's own operations. Each
// section gets a fixed share of -seconds and scales its times by its own
// calibration samples (calib.go), so all sections read in the same
// quiet-machine microseconds as the end-to-end metrics.

// sampler collects one section's raw timings.
type sampler struct {
	tr        *tracer
	ns        map[string][]float64
	calib     *calibrator
	deadline  time.Time
	attempted int
	failed    int
}

func newSampler(tr *tracer, d time.Duration) *sampler {
	return &sampler{tr: tr, ns: map[string][]float64{}, calib: newCalibrator(), deadline: time.Now().Add(d)}
}

// more reports whether the section's time share is not used up, and runs
// the calibration loop if it is due.
func (s *sampler) more() bool {
	now := time.Now()
	s.calib.tick(now)
	return now.Before(s.deadline)
}

// time runs f under a span and files its duration under name.
func (s *sampler) time(name string, parent int, op int64, f func(id int)) int64 {
	d := s.tr.in(name, parent, op, f)
	s.ns[name] = append(s.ns[name], float64(d))
	return d
}

func (s *sampler) add(name string, ns float64) { s.ns[name] = append(s.ns[name], ns) }

// check counts one verified operation and says on standard error where a
// failed one was checked.
func (s *sampler) check(ok bool) {
	s.attempted++
	if !ok {
		s.failed++
		_, file, line, _ := goruntime.Caller(1)
		fmt.Fprintf(os.Stderr, "benchmark: check failed at %s:%d\n", filepath.Base(file), line)
	}
}

func (s *sampler) scale() float64 { return calibScale(s.calib.ns) }

// us returns the median of name in quiet-machine microseconds.
func (s *sampler) us(name string) float64 { return median(s.ns[name]) * s.scale() / 1e3 }

// geomeanUs returns the geometric mean, over the names that have samples,
// of their medians: the per-program medians -> geomean rule.
func (s *sampler) geomeanUs(names []string) float64 {
	var v []float64
	for _, n := range names {
		if len(s.ns[n]) > 0 {
			v = append(v, s.us(n))
		}
	}
	return geomean(v)
}

// layerResult is what one traced run reports.
type layerResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
}

func (r *layerResult) merge(s *sampler) {
	r.attempted += s.attempted
	r.failed += s.failed
}

// section shares of -seconds.
const (
	shareOverhead  = 0.10
	shareCompile   = 0.18
	shareStencil   = 0.05
	shareCache     = 0.10
	shareGenerated = 0.30
	shareApply     = 0.04
	shareServe     = 0.13
	shareTenant    = 0.10
)

func share(total time.Duration, f float64) time.Duration {
	return time.Duration(float64(total) * f)
}

// perLayer runs the whole suite and returns every per-layer metric.
func perLayer(name string, seed int64, total time.Duration, tr *tracer) (*layerResult, error) {
	res := &layerResult{metrics: map[string]float64{}}
	sections := []struct {
		name string
		run  func() error
	}{
		{"trace overhead", func() error { return traceOverhead(res, name, seed, share(total, shareOverhead), tr) }},
		{"compile ladder", func() error { return compileLadder(res, seed, share(total, shareCompile), tr) }},
		{"stencil tier", func() error { return stencilTier(res, seed, share(total, shareStencil), tr) }},
		{"cache and store", func() error { return cacheAndStore(res, seed, share(total, shareCache), tr) }},
		{"generated code", func() error { return generatedCode(res, seed, share(total, shareGenerated), tr) }},
		{"apply boundary", func() error { return applyBoundary(res, share(total, shareApply), tr) }},
		{"serve ladder", func() error { return serveLadder(res, seed, share(total, shareServe), tr) }},
		{"tenant ladder", func() error { return tenantLadder(res, seed, share(total, shareTenant), tr) }},
	}
	for _, s := range sections {
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return res, nil
}

// traceOverhead compares the named workload's operations with and without
// spans, in alternating slices so that drift hits both alike: the cost of
// this benchmark's own recorder.
func traceOverhead(res *layerResult, name string, seed int64, d time.Duration, tr *tracer) error {
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	defer w.close()
	const slices = 6
	var plain, traced [][]clientLog
	for i := 0; i < slices; i++ {
		if i%2 == 0 {
			logs, _ := window(w, d/slices, nil)
			plain = append(plain, logs)
		} else {
			logs, _ := window(w, d/slices, tr)
			traced = append(traced, logs)
		}
	}
	rowMedians := func(runs [][]clientLog) float64 {
		var meds []float64
		for r := range w.rows() {
			var v []float64
			for _, logs := range runs {
				for _, l := range logs {
					v = append(v, l.ops[r]...)
				}
			}
			if len(v) > 0 {
				meds = append(meds, median(v))
			}
		}
		return geomean(meds)
	}
	for _, runs := range [][][]clientLog{plain, traced} {
		for _, logs := range runs {
			for _, l := range logs {
				res.attempted += l.attempted
				res.failed += l.failed
			}
		}
	}
	res.metrics["trace_overhead_ratio"] = rowMedians(traced) / rowMedians(plain)
	return nil
}
