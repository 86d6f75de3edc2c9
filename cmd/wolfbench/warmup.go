package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	gort "runtime"
	"time"

	"wolfc/internal/core"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// The -warmup mode (ISSUE 6): time-to-first-result and warmup curves for
// the three execution tiers — interpreter, stencil baseline (copy-and-patch
// closures), and the full optimising pipeline — plus per-tier compile
// latency over the autocompile corpus, written to BENCH_warmup.json.
//
// Compile latency is reported two ways. `total` is the whole request
// including the MExpr front half (macro expansion, binding, lowering) that
// both tiers share verbatim — it is the admission cost of compiling at all,
// paid identically whichever backend runs. `backend` is what the tier
// choice actually buys: quick-infer + stencil assembly versus Hindley-Milner
// inference + resolution + the pass pipeline + closure codegen. The gate in
// scripts/verify.sh runs on the backend ratio; both are published.

var (
	warmupF   = flag.Bool("warmup", false, "run the tier warmup suite: time-to-first-result and per-iteration latency curves for interpreter / stencil / O2, plus per-tier compile latency")
	warmupOut = flag.String("warmup-out", "BENCH_warmup.json", "output path for the -warmup JSON document")
)

// warmupCorpus mirrors examples/autocompile/corpus.wl: the definitions the
// differential gate drives through the tiering engine.
var warmupCorpus = []struct{ name, src string }{
	{"fib", `Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, fib[n - 1] + fib[n - 2]]]`},
	{"fact", `Function[{Typed[n, "MachineInteger"]}, If[n <= 1, 1, n*fact[n - 1]]]`},
	{"square", `Function[{Typed[x, "MachineInteger"]}, x*x]`},
	{"rhalf", `Function[{Typed[x, "Real64"]}, x/2.0 + 1.5]`},
}

// stencilFront names the stages shared by both tiers (the MExpr front
// half); everything else in a report is that tier's backend.
var warmupFrontStages = map[string]bool{"macro": true, "binding": true, "lower": true}

type warmupCompileRow struct {
	Name             string  `json:"name"`
	StencilTotalNs   float64 `json:"stencil_total_ns"`
	StencilBackendNs float64 `json:"stencil_backend_ns"`
	O2TotalNs        float64 `json:"o2_total_ns"`
	O2BackendNs      float64 `json:"o2_backend_ns"`
}

type warmupModeRow struct {
	Mode          string    `json:"mode"`
	FirstResultNs float64   `json:"first_result_ns"`
	CurveNs       []float64 `json:"curve_ns"`
	SteadyNs      float64   `json:"steady_ns"`
	SpeedupVsInt  float64   `json:"speedup_vs_interpreter"`
}

// bestCompile compiles fn n times with report collection and returns the
// fastest run's (total, backend) stage sums in nanoseconds.
func bestCompile(c *core.Compiler, name, src string, n int) (total, backend float64, err error) {
	fn := parser.MustParse(src)
	best := time.Duration(1 << 62)
	var bestBackend time.Duration
	for i := 0; i < n; i++ {
		ccf, cerr := c.FunctionCompileRequest(fn, core.CompileRequest{SelfName: name, Collect: true})
		if cerr != nil {
			return 0, 0, cerr
		}
		tot := ccf.Report.TotalDuration()
		if tot >= best {
			continue
		}
		best = tot
		bestBackend = 0
		for _, s := range ccf.Report.Stages {
			if !warmupFrontStages[s.Name] {
				bestBackend += s.Duration
			}
		}
	}
	return float64(best), float64(bestBackend), nil
}

// warmupCompileLatency measures per-tier compile latency over the corpus
// and returns per-function rows plus corpus-mean aggregates.
func warmupCompileLatency() ([]warmupCompileRow, warmupCompileRow, error) {
	k := kernel.New()
	k.Out = io.Discard
	core.Install(k)
	sc := core.NewCompiler(k)
	sc.Stencil = true
	fc := core.NewCompiler(k)
	// One throwaway compile per compiler: the first request on a fresh
	// Compiler pays lazy environment initialisation (~3× steady state).
	warm := `Function[{Typed[w, "MachineInteger"]}, w + 1]`
	if _, _, err := bestCompile(sc, "", warm, 1); err != nil {
		return nil, warmupCompileRow{}, err
	}
	if _, _, err := bestCompile(fc, "", warm, 1); err != nil {
		return nil, warmupCompileRow{}, err
	}
	reps := 20
	if *full {
		reps = 100
	}
	var rows []warmupCompileRow
	var mean warmupCompileRow
	for _, c := range warmupCorpus {
		st, sb, err := bestCompile(sc, c.name, c.src, reps)
		if err != nil {
			return nil, mean, fmt.Errorf("stencil compile of %s: %w", c.name, err)
		}
		ot, ob, err := bestCompile(fc, c.name, c.src, reps)
		if err != nil {
			return nil, mean, fmt.Errorf("full compile of %s: %w", c.name, err)
		}
		rows = append(rows, warmupCompileRow{c.name, st, sb, ot, ob})
		mean.StencilTotalNs += st
		mean.StencilBackendNs += sb
		mean.O2TotalNs += ot
		mean.O2BackendNs += ob
	}
	n := float64(len(rows))
	mean.Name = "corpus-mean"
	mean.StencilTotalNs /= n
	mean.StencilBackendNs /= n
	mean.O2TotalNs /= n
	mean.O2BackendNs /= n
	return rows, mean, nil
}

// warmupCurve runs one tier mode: a fresh kernel, a fresh recursive
// definition, then timed calls until the curve flattens. The first timed
// call is the time-to-first-result; steady state is the mean of the last
// five iterations.
func warmupCurve(mode string, iters int, pol *core.TierPolicy) (warmupModeRow, error) {
	k := kernel.New()
	k.Out = io.Discard
	core.Install(k)
	if pol != nil {
		tr := core.EnableTiering(k, *pol)
		defer tr.Close()
	}
	// Distinct symbol per mode: the function registry is process-global.
	sym := "wu" + mode
	def := fmt.Sprintf(`%s[n_] := If[n < 2, n, %s[n - 1] + %s[n - 2]]`, sym, sym, sym)
	if _, err := k.Run(parser.MustParse(def)); err != nil {
		return warmupModeRow{}, err
	}
	row := warmupModeRow{Mode: mode, CurveNs: make([]float64, 0, iters)}
	for i := 0; i < iters; i++ {
		q := parser.MustParse(sym + "[18]")
		t0 := time.Now()
		if _, err := k.Run(q); err != nil {
			return warmupModeRow{}, err
		}
		row.CurveNs = append(row.CurveNs, float64(time.Since(t0).Nanoseconds()))
	}
	row.FirstResultNs = row.CurveNs[0]
	tail := row.CurveNs[len(row.CurveNs)-5:]
	for _, ns := range tail {
		row.SteadyNs += ns
	}
	row.SteadyNs /= float64(len(tail))
	return row, nil
}

// warmupSuite is the -warmup entry point; returns the process exit code.
func warmupSuite() int {
	fmt.Println("=== Tier warmup: time-to-first-result and per-iteration latency, interpreter vs stencil vs O2 ===")
	rows, mean, err := warmupCompileLatency()
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -warmup:", err)
		return 1
	}
	fmt.Println("\ncompile latency over the autocompile corpus (best-of-N per function):")
	fmt.Printf("%-12s %14s %14s %14s %14s\n", "function",
		"stencil total", "o2 total", "stencil backend", "o2 backend")
	for _, r := range append(rows, mean) {
		fmt.Printf("%-12s %14s %14s %14s %14s\n", r.Name,
			fmtNs(r.StencilTotalNs), fmtNs(r.O2TotalNs),
			fmtNs(r.StencilBackendNs), fmtNs(r.O2BackendNs))
	}
	totalRatio := mean.O2TotalNs / mean.StencilTotalNs
	backendRatio := mean.O2BackendNs / mean.StencilBackendNs
	fmt.Printf("\ncompile ratio o2/stencil: total %.1fx, backend %.1fx\n", totalRatio, backendRatio)
	fmt.Println("(total includes the shared macro/binding/lower front half; backend is what the tier choice buys)")

	iters := 30
	if *full {
		iters = 100
	}
	modes := []struct {
		name string
		pol  *core.TierPolicy
	}{
		{"interpreter", nil},
		{"stencil", &core.TierPolicy{Threshold: 3, DisableO2: true}},
		{"o2", &core.TierPolicy{Threshold: 2, DisableStencil: true}},
	}
	var modeRows []warmupModeRow
	var interpSteady float64
	fmt.Printf("\nwarmup curves, fib[18] per call (%d iterations):\n", iters)
	fmt.Printf("%-12s %16s %14s %10s\n", "mode", "first result", "steady state", "vs interp")
	for _, m := range modes {
		row, err := warmupCurve(m.name, iters, m.pol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wolfbench: -warmup:", err)
			return 1
		}
		if m.name == "interpreter" {
			interpSteady = row.SteadyNs
		}
		row.SpeedupVsInt = interpSteady / row.SteadyNs
		modeRows = append(modeRows, row)
		fmt.Printf("%-12s %16s %14s %9.1fx\n", row.Mode,
			fmtNs(row.FirstResultNs), fmtNs(row.SteadyNs), row.SpeedupVsInt)
	}

	doc := struct {
		Schema       string             `json:"schema"`
		Env          envJSON            `json:"env"`
		Full         bool               `json:"full"`
		Compile      []warmupCompileRow `json:"compile"`
		CompileMean  warmupCompileRow   `json:"compile_mean"`
		TotalRatio   float64            `json:"compile_total_ratio_o2_over_stencil"`
		BackendRatio float64            `json:"compile_backend_ratio_o2_over_stencil"`
		Modes        []warmupModeRow    `json:"modes"`
	}{"wolfbench/warmup/v1", envJSON{
		GoVersion: gort.Version(), GOOS: gort.GOOS, GOARCH: gort.GOARCH,
		GOMAXPROCS: gort.GOMAXPROCS(0), NumCPU: gort.NumCPU(),
	}, *full, rows, mean, totalRatio, backendRatio, modeRows}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -warmup:", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(*warmupOut, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -warmup:", err)
		return 1
	}
	fmt.Printf("\nwrote %s\n", *warmupOut)
	return 0
}
