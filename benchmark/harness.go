package main

import (
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A workload is a closed loop: each client issues its next operation only
// when the previous one has returned, the way a caller of FunctionCompile
// or a REPL session behaves. Its operations fall into rows (programs,
// sources, query classes); timings are kept per row and combined by
// geometric mean, so a slow row cannot hide a change in a fast one.
type workload interface {
	rows() []string
	clients() int
	// op runs client c's i-th operation. It returns the row the operation
	// belongs to, the duration of its timed part, and whether the result
	// matched the expected output. tr is nil unless spans are wanted.
	op(c, i int, tr *tracer) (row int, ns int64, ok bool)
	close()
}

// A referenced workload has a hand-written Go implementation of each row
// (Figure 2's baseline), run on the same input right after the operation.
type referenced interface {
	ref(row int) (ns int64, ok bool)
}

// clientLog is what one client goroutine records; nothing in it is shared
// while the window is open.
type clientLog struct {
	ops       [][]float64 // per row, ns
	refs      [][]float64 // per row, ns
	calib     *calibrator
	busy      int64 // ns spent inside timed operations
	attempted int
	failed    int
}

// window drives w for d and returns each client's log and the bytes the
// process allocated meanwhile. With tr non-nil operations record spans.
func window(w workload, d time.Duration, tr *tracer) ([]clientLog, uint64) {
	n := w.clients()
	logs := make([]clientLog, n)
	nrows := len(w.rows())
	ref, _ := w.(referenced)
	for c := range logs {
		logs[c].ops = make([][]float64, nrows)
		logs[c].refs = make([][]float64, nrows)
		for r := 0; r < nrows; r++ {
			logs[c].ops[r] = make([]float64, 0, 1<<12)
			logs[c].refs[r] = make([]float64, 0, 1<<10)
		}
		logs[c].calib = newCalibrator()
		logs[c].calib.tick(time.Now()) // the map's buckets are allocated here, outside the window
		logs[c].calib.ns = logs[c].calib.ns[:0]
	}
	// What the references allocate is measured here and taken off the
	// window's total, so that alloc_kb_per_op is the system's.
	refAlloc := make([]uint64, nrows)
	if ref != nil {
		for r := range refAlloc {
			refAlloc[r] = allocOf(func() { ref.ref(r) })
		}
	}
	var wg sync.WaitGroup
	alloc0 := totalAlloc()
	deadline := time.Now().Add(d)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &logs[c]
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				l.calib.tick(now)
				row, ns, ok := w.op(c, i, tr)
				l.attempted++
				l.ops[row] = append(l.ops[row], float64(ns))
				l.busy += ns
				if ok && ref != nil {
					var rns int64
					// A reference that disagrees with the expected file
					// fails the operation too: the check itself is broken.
					rns, ok = ref.ref(row)
					l.refs[row] = append(l.refs[row], float64(rns))
				}
				if !ok {
					if l.failed == 0 {
						fmt.Fprintf(os.Stderr, "benchmark: client %d: first failed operation is its %dth, row %s\n", c, i, w.rows()[row])
					}
					l.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	alloc := int64(totalAlloc() - alloc0)
	for _, l := range logs {
		for r := range l.refs {
			alloc -= int64(len(l.refs[r])) * int64(refAlloc[r])
		}
	}
	if alloc < 0 {
		alloc = 0
	}
	return logs, uint64(alloc)
}

// allocOf returns the bytes one call of f allocates (mean of eight).
func allocOf(f func()) uint64 {
	a0 := totalAlloc()
	for i := 0; i < 8; i++ {
		f()
	}
	return (totalAlloc() - a0) / 8
}

// rowStats is one line of a workload's result table, times in quiet-machine
// microseconds (see calib.go).
type rowStats struct {
	Name    string  `json:"name"`
	Samples int     `json:"samples"`
	P50us   float64 `json:"p50_us"`
	P95us   float64 `json:"p95_us"`
	RefP50  float64 `json:"ref_p50_us,omitempty"`
}

type summary struct {
	rows      []rowStats
	attempted int
	failed    int
	calibUs   float64 // measured calibration median, raw
	calibN    int
	opP50us   float64
	opsPerS   float64
	refRatio  float64
	allocKB   float64
}

// summarise folds the client logs into the end-to-end numbers.
func summarise(w workload, logs []clientLog, allocBytes uint64) summary {
	var s summary
	var calib []float64
	for _, l := range logs {
		calib = append(calib, l.calib.ns...)
	}
	calibNs := median(calib)
	scale := calibScale(calib)
	s.calibUs, s.calibN = calibNs/1e3, len(calib)

	var p50s, ratios []float64
	for r, name := range w.rows() {
		var ops, refs []float64
		for _, l := range logs {
			ops = append(ops, l.ops[r]...)
			refs = append(refs, l.refs[r]...)
		}
		if len(ops) == 0 {
			continue
		}
		sort.Float64s(ops)
		p50 := quantile(ops, 0.5)
		rs := rowStats{Name: name, Samples: len(ops), P50us: p50 * scale / 1e3, P95us: quantile(ops, 0.95) * scale / 1e3}
		// Figure 2's y-axis where the row has a Go implementation; the
		// cost in calibration loops where it has none.
		refNs := calibNs
		if len(refs) > 0 {
			refNs = median(refs)
			rs.RefP50 = refNs * scale / 1e3
		}
		ratios = append(ratios, p50/refNs)
		s.rows = append(s.rows, rs)
		p50s = append(p50s, rs.P50us)
	}
	for _, l := range logs {
		s.attempted += l.attempted
		s.failed += l.failed
		if l.busy > 0 {
			s.opsPerS += float64(l.attempted) / (float64(l.busy) / 1e9) / scale
		}
	}
	s.opP50us = geomean(p50s)
	s.refRatio = geomean(ratios)
	if s.attempted > 0 {
		s.allocKB = float64(allocBytes) / 1024 / float64(s.attempted)
	}
	return s
}

// quantile reads the q-quantile of an ascending slice by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

// peakRSSMiB reads the process's high-water resident set from
// /proc/self/status (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func totalAlloc() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.TotalAlloc
}

// timeIt returns how long f took in nanoseconds.
func timeIt(f func()) int64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Nanoseconds()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
