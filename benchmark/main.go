// Command benchmark is the one benchmark of this repository: six
// workloads, six end-to-end metrics reported on every workload, and a
// per-layer suite (see README.md and ../BENCHMARK.json).
//
//	go run . -workload fig2_scalar -seed 1            end-to-end metrics
//	go run . -workload serve_hot -seed 1 -trace 1     per-layer metrics
//	go run . -all -seed 1 [-trace 1]                  every workload, one process each
//	go run . -selfcheck -runs 5                       repeatability against BENCHMARK.json's bounds
//	go run . -regen-expected .                        rewrite expected/*.txt
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloadSpec names a workload and says why it exists; BENCHMARK.json
// repeats the list.
type workloadSpec struct {
	name string
	why  string
	make func(seed int64) (workload, error)
}

var workloads = []workloadSpec{
	{"fig2_scalar", "compiled scalar loops and recursion (fnv1a, mandelbrot, primeq, fib) vs Go: closure dispatch, fusion, abort polls, prologues; no tensor runtime",
		func(seed int64) (workload, error) { return newFig2(true, seed) }},
	{"fig2_tensor", "compiled tensor programs (blur, histogram, qsort, dot, randomwalk) vs Go: Part/SetPart, bounds, copy-on-write, function values, BLAS",
		func(seed int64) (workload, error) { return newFig2(false, seed) }},
	{"compile_cold", "FunctionCompileCached on 17 freshly salted sources: every call runs the whole O2 pipeline and writes both cache levels",
		func(seed int64) (workload, error) { return newCompileWL(false, seed) }},
	{"compile_warm", "same corpus on a fresh compiler over a populated artifact store: every call is an in-memory miss and a store read (decode + codegen)",
		func(seed int64) (workload, error) { return newCompileWL(true, seed) }},
	{"serve_hot", "hot queries over HTTP, one session per core, everything already compiled: HTTP, JSON, parse, dispatch, box/unbox and print are the cost",
		newServeHot},
	{"tenant_coldstart", "whole session lifecycles: create, compile from shared artifacts, climb interpreter to stencil to O2, destroy",
		newTenantColdstart},
}

func newWorkload(name string, seed int64) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make(seed)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envBlock is recorded with every result written by -out.
type envBlock struct {
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

// resultDoc is what -out writes: the result line plus what explains it.
type resultDoc struct {
	Env          envBlock   `json:"env"`
	Result       resultLine `json:"result"`
	Rows         []rowStats `json:"rows,omitempty"`
	CalibUs      float64    `json:"calibration_median_us,omitempty"`
	CalibSamples int        `json:"calibration_samples,omitempty"`
	SetupsS      []float64  `json:"setups_s,omitempty"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// defaultSeconds is the window BENCHMARK.json's run_seconds asks for: 136
// driver runs of 15 s plus set-up fit its 3420 s with a third to spare.
const defaultSeconds = 15

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

// runEndToEnd sets the workload up, drives it for the window with no
// spans, and reports the end-to-end metrics.
func runEndToEnd(name string, seed int64, d time.Duration) (*resultDoc, error) {
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = newWorkload(name, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	logs, alloc := window(w, d, nil)
	w.close()
	s := summarise(w, logs, alloc)
	doc := &resultDoc{Rows: s.rows, CalibUs: s.calibUs, CalibSamples: s.calibN, SetupsS: setups}
	doc.Result = resultLine{
		Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed,
		Metrics: withUnits(endToEnd, map[string]float64{
			"setup_s":           median(setups),
			"op_p50_us":         s.opP50us,
			"ops_per_s":         s.opsPerS,
			"ref_ratio_geomean": s.refRatio,
			"alloc_kb_per_op":   s.allocKB,
			"peak_rss_mb":       peakRSSMiB(),
		}),
	}
	return doc, nil
}

// runPerLayer runs the per-layer suite with spans on.
func runPerLayer(name string, seed int64, d time.Duration, traceOut string) (*resultDoc, error) {
	tr := newTracer()
	res, err := perLayer(name, seed, d, tr)
	if err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return nil, err
		}
	}
	doc := &resultDoc{}
	doc.Result = resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: withUnits(perLayerMetrics, res.metrics)}
	return doc, nil
}

// withUnits attaches the catalogue's units. A value with no catalogue entry
// or an entry with no value is a bug in this program, not in the system.
func withUnits(catalogue []metricSpec, values map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, m := range catalogue {
		v, ok := values[m.Name]
		if !ok {
			fatalf("metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for k := range values {
		if _, ok := out[k]; !ok {
			fatalf("metric %s is not in the catalogue", k)
		}
	}
	return out
}

func printTable(doc *resultDoc) {
	w := os.Stderr
	if len(doc.Rows) > 0 {
		fmt.Fprintf(w, "%-14s %8s %12s %12s %12s\n", "row", "samples", "p50_us", "p95_us", "ref_p50_us")
		for _, r := range doc.Rows {
			fmt.Fprintf(w, "%-14s %8d %12.1f %12.1f %12.1f\n", r.Name, r.Samples, r.P50us, r.P95us, r.RefP50)
		}
		fmt.Fprintf(w, "calibration: median %.1f us over %d samples (nominal %.0f us)\n",
			doc.CalibUs, doc.CalibSamples, float64(calibNominal)/1e3)
	}
	names := make([]string, 0, len(doc.Result.Metrics))
	for k := range doc.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := doc.Result.Metrics[k]
		fmt.Fprintf(w, "%-32s %14.4f %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", doc.Result.Attempted, doc.Result.Failed)
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs, query order and cache salts")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, no spans; 1: per-layer metrics, spans on")
		out      = flag.String("out", "", "also write the result, its env block and its row table to this JSON file")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
		all      = flag.Bool("all", false, "run every workload, each in a process of its own")
		self     = flag.Bool("selfcheck", false, "run every workload -runs times and compare each metric's spread with its bound")
		runs     = flag.Int("runs", 5, "runs per workload for -selfcheck")
		spec     = flag.String("spec", "../BENCHMARK.json", "BENCHMARK.json, for -selfcheck's bounds")
		regen    = flag.String("regen-expected", "", "rewrite expected/*.txt under this directory (the benchmark's source directory)")
	)
	flag.Parse()
	// One to four cores, whatever the machine has: the serving workloads
	// run one client per core, and results from a 64-core box would not be
	// comparable with anything.
	procs := goruntime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	goruntime.GOMAXPROCS(procs)

	switch {
	case *regen != "":
		if err := regenExpected(*regen); err != nil {
			fatalf("%v", err)
		}
		return
	case *self:
		os.Exit(selfcheck(*spec, *runs, *seed, *seconds))
	case *all:
		code := 0
		for _, w := range workloads {
			line, err := runChild(w.name, *seed, *seconds, *trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				code = 1
				continue
			}
			fmt.Printf("{\"workload\":%q,\"result\":%s}\n", w.name, line)
		}
		os.Exit(code)
	}

	d := time.Duration(*seconds * float64(time.Second))
	var doc *resultDoc
	var err error
	if *trace != 0 {
		doc, err = runPerLayer(*name, *seed, d, *traceOut)
	} else {
		doc, err = runEndToEnd(*name, *seed, d)
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	doc.Env = envBlock{GoVersion: goruntime.Version(), NumCPU: goruntime.NumCPU(), GOMAXPROCS: procs,
		Seed: *seed, Commit: commit(), Workload: *name, Seconds: *seconds, Traced: *trace != 0}
	printTable(doc)
	if *out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	line, err := json.Marshal(doc.Result)
	if err != nil {
		fatalf("%v", err)
	}
	// Wrong outputs are reported in the line ("correct", "failed"), not by
	// the exit code: a non-zero exit means there is no result.
	fmt.Println(string(line))
}

// runChild runs one workload in a process of its own (cold caches, its own
// peak memory) and returns its result line.
func runChild(name string, seed int64, seconds float64, trace int) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(outb), []byte("\n"))
	return lines[len(lines)-1], nil
}
