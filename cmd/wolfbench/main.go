// Command wolfbench regenerates the paper's evaluation (§6): Figure 2's
// seven benchmarks normalised to the hand-written reference, Figure 1's
// random walk, the §1 FindRoot auto-compilation speedup, Table 1's feature
// matrix as executable checks, and the §6 ablations (inlining, abort
// checks, QSort copies, PrimeQ constant handling).
//
//	wolfbench                 # everything, at moderate sizes
//	wolfbench -fig 2          # Figure 2 only
//	wolfbench -full           # paper-scale workloads (slow)
//	wolfbench -table 1        # the feature matrix
//	wolfbench -findroot       # §1 auto-compilation
//	wolfbench -ablation all   # §6 ablations
//	wolfbench -report         # per-stage compile timings of the Figure 2 kernels, as JSON
//
// Speed is tracked by benchmark/ (BENCHMARK.json), not here: this command
// prints the paper's tables, it gates nothing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	gort "runtime"
	"strings"
	"time"

	"wolfc/internal/bench"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/numerics"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
	"wolfc/internal/vm"
)

var (
	full      = flag.Bool("full", false, "paper-scale workloads (minutes per row)")
	fig       = flag.Int("fig", 0, "regenerate one figure (1 or 2)")
	table     = flag.Int("table", 0, "regenerate one table (1)")
	findroot  = flag.Bool("findroot", false, "the §1 FindRoot auto-compilation comparison")
	ablation  = flag.String("ablation", "", "ablations: inline | qsortcopy | abort | constants | all")
	benchName = flag.String("bench", "", "run a single Figure 2 benchmark by name")
	withInt   = flag.Bool("interp", true, "include the interpreter series (slow)")
	jsonPath  = flag.String("json", "", "write machine-readable results (schema wolfbench/v1) to this path")
	reportF   = flag.Bool("report", false, "emit a JSON compile-report block (per-stage/per-pass timings) for the Figure 2 kernels")

	metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/funcs on this address for the run (enables metric recording)")
	traceOut    = flag.String("trace-out", "", "write JSONL trace events (compile/invoke/fallback) to this file")
)

// benchResult is one row of the -json output.
type benchResult struct {
	Name    string  `json:"name"`
	Impl    string  `json:"impl"`
	Size    int     `json:"size"`
	NsPerOp float64 `json:"ns_per_op"`
}

var jsonResults []benchResult

func record(name, impl string, size int, nsPerOp float64) {
	jsonResults = append(jsonResults, benchResult{Name: name, Impl: impl, Size: size, NsPerOp: nsPerOp})
}

// cacheStatsJSON is the compile_cache block of the -json document.
type cacheStatsJSON struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Coalesced     uint64  `json:"coalesced"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	Entries       int     `json:"entries"`
	HitRatio      float64 `json:"hit_ratio"`
}

func cacheJSON(cs core.CompileCacheStats) cacheStatsJSON {
	return cacheStatsJSON{
		Hits: cs.Hits, Misses: cs.Misses, Coalesced: cs.Coalesced,
		Evictions: cs.Evictions, Invalidations: cs.Invalidations,
		Entries: cs.Entries, HitRatio: cs.HitRatio(),
	}
}

// envJSON records the machine the numbers were taken on, so two -json files
// can be compared with their environments in view.
type envJSON struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func emitJSON(path string) {
	cs := core.CompileCacheStatsNow()
	doc := struct {
		Schema       string         `json:"schema"`
		GOMAXPROCS   int            `json:"gomaxprocs"` // kept for older readers; see env
		Env          envJSON        `json:"env"`
		Full         bool           `json:"full"`
		CompileCache cacheStatsJSON `json:"compile_cache"`
		Results      []benchResult  `json:"results"`
	}{"wolfbench/v1", gort.GOMAXPROCS(0), envJSON{
		GoVersion: gort.Version(), GOOS: gort.GOOS, GOARCH: gort.GOARCH,
		GOMAXPROCS: gort.GOMAXPROCS(0), NumCPU: gort.NumCPU(),
	}, *full, cacheJSON(cs), jsonResults}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -json:", err)
		return
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -json:", err)
		return
	}
	fmt.Printf("wrote %d results to %s\n", len(jsonResults), path)
}

// compileReports compiles the Figure 2 kernels at O0/O1/O2 with
// instrumentation on and writes one JSON block (per-stage and per-pass
// timings, fixpoint trip counts) to stdout. Returns a process exit code.
func compileReports() int {
	type row struct {
		Name     string              `json:"name"`
		OptLevel int                 `json:"opt_level"`
		Report   *core.CompileReport `json:"report"`
	}
	out := struct {
		Schema  string `json:"schema"`
		Reports []row  `json:"reports"`
	}{Schema: "wolfbench/compile-report/v1"}
	k := kernel.New()
	for _, name := range []string{"fnv1a", "mandelbrot", "dot", "blur", "histogram"} {
		src, ok := bench.FnSource(name)
		if !ok {
			continue
		}
		fn, tab, err := parser.ParseSource(name, src)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wolfbench: -report: %s: %v\n", name, err)
			return 1
		}
		for _, o := range []int{0, 1, 2} {
			c := core.NewCompiler(k)
			c.Options.OptimizationLevel = o
			ccf, err := c.FunctionCompileRequest(fn, core.CompileRequest{
				Source: tab, Collect: true,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "wolfbench: -report: %s at O%d: %v\n", name, o, err)
				return 1
			}
			out.Reports = append(out.Reports, row{Name: name, OptLevel: o, Report: ccf.Report})
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -report:", err)
		return 1
	}
	return 0
}

func main() {
	flag.Parse()
	if *reportF {
		os.Exit(compileReports())
	}
	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wolfbench:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics and /debug/funcs\n\n", srv.Addr())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wolfbench: -trace-out:", err)
			os.Exit(2)
		}
		obs.SetTraceWriter(f)
		defer func() {
			obs.SetTraceWriter(nil)
			f.Close()
		}()
	}
	any := false
	defaults := *fig == 0 && *table == 0 && !*findroot && *ablation == ""
	if *fig == 2 || defaults {
		figure2()
		any = true
	}
	if *fig == 1 || defaults {
		figure1()
		any = true
	}
	if *table == 1 || defaults {
		table1()
		any = true
	}
	if *findroot || defaults {
		findRootComparison()
		any = true
	}
	if *ablation != "" {
		ablations(*ablation)
		any = true
	} else if defaults {
		ablations("all")
		any = true
	}
	if !any {
		ablations("all")
	}
	if *jsonPath != "" {
		emitJSON(*jsonPath)
	}
}

// size returns the workload for a benchmark under the current scale.
func size(name string) int {
	if *full {
		return bench.DefaultSize(name)
	}
	switch name {
	case "fnv1a", "histogram":
		return 200_000
	case "mandelbrot":
		return 1000
	case "dot", "blur":
		return 256
	case "primeq":
		return 100_000
	case "qsort":
		return 1 << 13
	case "randomwalk":
		return 20_000
	}
	return bench.DefaultSize(name)
}

// interpScale shrinks the interpreter's workload; the measured time is
// scaled back linearly for the normalised figure (quadratic effects are
// noted in EXPERIMENTS.md).
func interpScale(name string) int {
	switch name {
	case "mandelbrot":
		return 50 // max iterations, not elements — scales linearly in work
	case "dot":
		return 48
	case "blur":
		return 48
	case "qsort":
		return 1 << 9
	default:
		return size(name) / 40
	}
}

// measure runs the Runner repeatedly for at least minDur and returns ns/op.
func measure(run bench.Runner, minDur time.Duration) float64 {
	run() // warm up
	iters := 0
	start := time.Now()
	for {
		run()
		iters++
		if time.Since(start) >= minDur && iters >= 1 {
			break
		}
		if iters >= 1000 {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

func figure2() {
	fmt.Println("=== Figure 2: benchmark slowdown, normalised to the hand-written reference ===")
	fmt.Println("(paper: new compiler ~1x of hand-tuned C; bytecode capped at 2.5x in the figure,")
	fmt.Println(" actual slowdown printed in the bar; this reproduction reports actual ratios)")
	fmt.Println()
	names := []string{"fnv1a", "mandelbrot", "dot", "blur", "histogram", "primeq", "qsort"}
	if *benchName != "" {
		names = []string{*benchName}
	}
	fmt.Printf("%-12s %-18s %14s %10s\n", "benchmark", "implementation", "time/op", "vs go")
	for _, name := range names {
		sz := size(name)
		goRun, err := bench.Prepare(name, bench.ImplGo, sz)
		if err != nil {
			fmt.Printf("%-12s go reference failed: %v\n", name, err)
			continue
		}
		goNs := measure(goRun, 300*time.Millisecond)
		record(name, "go", sz, goNs)
		fmt.Printf("%-12s %-18s %14s %10s\n", name, "go (ref)", fmtNs(goNs), "1.0x")
		impls := []bench.Impl{bench.ImplCompiled, bench.ImplCompiledNoAbort, bench.ImplBytecode}
		if *withInt {
			impls = append(impls, bench.ImplInterp)
		}
		for _, impl := range impls {
			sz2 := sz
			scaleBack := 1.0
			if impl == bench.ImplInterp {
				sz2 = interpScale(name)
				scaleBack = float64(sz) / float64(sz2)
				if name == "dot" { // O(n^3)
					r := float64(sz) / float64(sz2)
					scaleBack = r * r * r
				}
				if name == "blur" { // O(n^2)
					r := float64(sz) / float64(sz2)
					scaleBack = r * r
				}
				if name == "qsort" { // O(n log n) ~ linear-ish; keep linear
					scaleBack = float64(sz) / float64(sz2)
				}
			}
			run, err := bench.Prepare(name, impl, sz2)
			if err != nil {
				fmt.Printf("%-12s %-18s %14s %10s\n", name, string(impl), "—",
					"n/a ("+firstLine(err.Error())+")")
				continue
			}
			ns := measure(run, 300*time.Millisecond) * scaleBack
			record(name, string(impl), sz, ns)
			fmt.Printf("%-12s %-18s %14s %9.1fx\n", name, string(impl), fmtNs(ns), ns/goNs)
		}
		fmt.Println()
	}
}

func figure1() {
	fmt.Println("=== Figure 1: the random walk, interpreted vs bytecode vs new compiler ===")
	sz := size("randomwalk")
	rows := []struct {
		impl  bench.Impl
		label string
	}{
		{bench.ImplInterp, "In[1] interpreted (NestList)"},
		{bench.ImplBytecode, "In[2] bytecode Compile (loop rewrite)"},
		{bench.ImplCompiled, "In[3] FunctionCompile (same NestList code)"},
	}
	var interpNs float64
	for _, r := range rows {
		sz2 := sz
		scaleBack := 1.0
		if r.impl == bench.ImplInterp {
			sz2 = interpScale("randomwalk")
			scaleBack = float64(sz) / float64(sz2)
		}
		run, err := bench.Prepare("randomwalk", r.impl, sz2)
		if err != nil {
			fmt.Printf("  %-44s failed: %v\n", r.label, err)
			continue
		}
		ns := measure(run, 300*time.Millisecond) * scaleBack
		speed := ""
		if r.impl == bench.ImplInterp {
			interpNs = ns
		} else if interpNs > 0 {
			speed = fmt.Sprintf("(%.1fx over interpreter)", interpNs/ns)
		}
		fmt.Printf("  %-44s %12s %s\n", r.label, fmtNs(ns), speed)
	}
	fmt.Println()
}

func findRootComparison() {
	fmt.Println("=== §1: FindRoot[Sin[x] + E^x, {x, 0}] auto-compilation ===")
	k := kernel.New()
	k.Out = io.Discard
	eq := parser.MustParse("Sin[x] + Exp[x]")
	for _, auto := range []bool{false, true} {
		opts := numerics.DefaultFindRootOptions()
		opts.AutoCompile = auto
		// Per-solve timing including the auto-compile itself would hide
		// the steady-state win; compile once by timing repeated solves.
		start := time.Now()
		iters := 0
		for time.Since(start) < 400*time.Millisecond {
			if _, err := numerics.FindRoot(k, eq, expr.Sym("x"), 0, opts); err != nil {
				fmt.Println("  failed:", err)
				return
			}
			iters++
		}
		label := "interpreted evaluation"
		if auto {
			label = "auto-compiled (function + derivative)"
		}
		fmt.Printf("  %-40s %12s/solve\n", label,
			fmtNs(float64(time.Since(start).Nanoseconds())/float64(iters)))
	}
	fmt.Println("  (paper: 1.6x speedup from auto-compilation)")
	fmt.Println()
}

// table1 runs Table 1 as executable feature checks.
func table1() {
	fmt.Println("=== Table 1: features and objectives (executable checks) ===")
	k := kernel.New()
	k.Out = io.Discard
	vm.Install(k)
	c := core.Install(k)
	_ = c
	check := func(id, name string, newOK, byteOK string, f func() bool) {
		status := "FAIL"
		if f() {
			status = "ok"
		}
		fmt.Printf("  %-3s %-28s new:%-3s bytecode:%-3s  [%s]\n", id, name, newOK, byteOK, status)
	}
	ev := func(src string) expr.Expr {
		out, err := k.Run(parser.MustParse(src))
		if err != nil {
			return expr.SymFailed
		}
		return out
	}
	check("F1", "Integration with interpreter", "yes", "yes", func() bool {
		return expr.InputForm(ev(`FunctionCompile[Function[{Typed[x, "MachineInteger"]}, x + 1]][41]`)) == "42"
	})
	check("F2", "Soft failure mode", "yes", "yes", func() bool {
		out := ev(`FunctionCompile[Function[{Typed[n, "MachineInteger"]}, n*n*n*n*n]][10000000]`)
		i, ok := out.(*expr.Integer)
		return ok && !i.IsMachine()
	})
	check("F3", "Abortable evaluation", "yes", "yes", func() bool {
		ccf, err := core.NewCompiler(k).FunctionCompile(parser.MustParse(
			`Function[{Typed[n, "MachineInteger"]}, Module[{i = 0}, While[i >= 0, i = Mod[i + 1, 7]]; i]]`))
		if err != nil {
			return false
		}
		go func() { time.Sleep(10 * time.Millisecond); k.Abort() }()
		out, err := ccf.Apply([]expr.Expr{expr.FromInt64(1)})
		k.ClearAbort()
		return err == nil && out == expr.SymAborted
	})
	check("F4", "Backend support", "yes", "limited", func() bool {
		// Two backends over one TWIR: the native closure backend runs it, and
		// the C backend exports it.
		ccf, err := core.NewCompiler(k).FunctionCompile(parser.MustParse(
			`Function[{Typed[x, "Real64"]}, x*2.]`))
		if err != nil {
			return false
		}
		cSrc, err := ccf.ExportString("C")
		if err != nil || !strings.Contains(cSrc, "double") || ccf.CallRaw(21.0) != 42.0 {
			return false
		}
		// With a system C compiler available, prove the C export by
		// building and running it.
		cc, err := exec.LookPath("cc")
		if err != nil {
			return true // export paths verified; no toolchain to run them
		}
		full, err := ccf.ExportString("CStandalone")
		if err != nil {
			return false
		}
		dir, err := os.MkdirTemp("", "wolfc-f4")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		cPath := filepath.Join(dir, "f4.c")
		driver := full + "\n#include <stdio.h>\nint main(void) { printf(\"%.17g\\n\", Main(21.0)); return 0; }\n"
		if os.WriteFile(cPath, []byte(driver), 0o644) != nil {
			return false
		}
		bin := filepath.Join(dir, "f4")
		if exec.Command(cc, "-std=c11", "-O1", "-o", bin, cPath, "-lm").Run() != nil {
			return false
		}
		out, err := exec.Command(bin).Output()
		return err == nil && strings.TrimSpace(string(out)) == "42"
	})
	check("F5", "Mutability semantics", "yes", "partial", func() bool {
		return expr.InputForm(ev(`FunctionCompile[Function[{Typed[v, "Tensor"["Real64", 1]]},
			Module[{w = v}, w[[1]] = 9.; w[[1]] + v[[1]]]]][{1., 2.}]`)) == "10."
	})
	check("F6", "Extensible user types", "yes", "no", func() bool {
		cc := core.NewCompiler(k)
		cc.TypeEnv.DeclareClass("Ordered", "MyType")
		ty, err := cc.TypeEnv.ParseSpec(parser.MustParse(`"MyType"`))
		return err == nil && cc.TypeEnv.MemberOf(ty, "Ordered")
	})
	check("F7", "Memory management", "yes", "partial", func() bool {
		ccf, err := core.NewCompiler(k).FunctionCompile(parser.MustParse(
			`Function[{Typed[n, "MachineInteger"]}, Table[i, {i, 1, n}]]`))
		if err != nil {
			return false
		}
		// Reference counts are the C backend's lowering (its runtime frees).
		src, err := ccf.ExportString("C")
		return err == nil && (strings.Contains(src, "wolfrt_memory_acquire") || strings.Contains(src, "wolfrt_memory_release"))
	})
	check("F8", "Symbolic compute", "yes", "no", func() bool {
		return expr.InputForm(ev(`FunctionCompile[Function[{Typed[a, "Expression"], Typed[b, "Expression"]}, a + b]][x, y]`)) == "x + y"
	})
	check("F9", "Gradual compilation", "yes", "no", func() bool {
		ev("tripleIt[v_] := 3*v")
		return expr.InputForm(ev(`FunctionCompile[Function[{Typed[x, "MachineInteger"]}, KernelFunction[tripleIt][x]]][5]`)) == "15"
	})
	check("F10", "Standalone export", "yes", "partial", func() bool {
		ccf, err := core.NewCompiler(k).FunctionCompile(parser.MustParse(
			`Function[{Typed[x, "MachineInteger"]}, x + 1]`))
		if err != nil {
			return false
		}
		var sb strings.Builder
		if err := ccf.ExportLibrary(&writerAdapter{&sb}); err != nil {
			return false
		}
		loaded, err := core.LoadCompiledLibrary(core.NewCompiler(k), strings.NewReader(sb.String()), true)
		if err != nil {
			return false
		}
		out, err := loaded.Apply([]expr.Expr{expr.FromInt64(1)})
		return err == nil && expr.InputForm(out) == "2"
	})
	fmt.Println()
}

type writerAdapter struct{ b *strings.Builder }

func (w *writerAdapter) Write(p []byte) (int, error) { return w.b.Write(p) }

func ablations(which string) {
	if which == "all" || which == "inline" {
		ablationInline()
	}
	if which == "all" || which == "qsortcopy" {
		ablationQSortCopy()
	}
	if which == "all" || which == "abort" {
		ablationAbort()
	}
	if which == "all" || which == "constants" {
		ablationConstants()
	}
}

func ablationInline() {
	fmt.Println("=== §6 ablation: inlining (paper: 10x slowdown on Mandelbrot without) ===")
	src := `Function[{Typed[maxIter, "MachineInteger"]},
		Module[{total = 0, xi = 0, yi = 0, step = Function[{zr, zi, cr}, zr*zr - zi*zi + cr], cr = 0., ci = 0., zr = 0., zi = 0., t = 0., iters = 0},
			While[xi <= 20,
				cr = -1. + 0.1*xi; yi = 0;
				While[yi <= 15,
					ci = -1. + 0.1*yi; zr = 0.; zi = 0.; iters = 0;
					While[iters < maxIter && zr*zr + zi*zi < 4.,
						t = step[zr, zi, cr]; zi = 2.*zr*zi + ci; zr = t; iters = iters + 1];
					total = total + iters; yi = yi + 1];
				xi = xi + 1];
			total]]`
	var base float64
	for _, policy := range []string{"auto", "none"} {
		k := kernel.New()
		k.Out = io.Discard
		c := core.NewCompiler(k)
		c.Options.InlinePolicy = policy
		ccf, err := c.FunctionCompile(parser.MustParse(src))
		if err != nil {
			fmt.Println("  failed:", err)
			return
		}
		ns := measure(func() string { return fmt.Sprint(ccf.CallRaw(int64(1000))) }, 300*time.Millisecond)
		note := ""
		if policy == "auto" {
			base = ns
		} else {
			note = fmt.Sprintf("(%.1fx slower)", ns/base)
		}
		fmt.Printf("  inline=%-5s %12s %s\n", policy, fmtNs(ns), note)
	}
	fmt.Println()
}

func ablationQSortCopy() {
	fmt.Println("=== §6 ablation: QSort mutability copies (paper: 1.2x over C from one copy) ===")
	sz := 1 << 12
	base, err := bench.Prepare("qsort", bench.ImplCompiled, sz)
	if err != nil {
		fmt.Println("  failed:", err)
		return
	}
	always, err := bench.PrepareQSortCopyAblation(sz)
	if err != nil {
		fmt.Println("  failed:", err)
		return
	}
	b := measure(base, 300*time.Millisecond)
	a := measure(always, 300*time.Millisecond)
	fmt.Printf("  alias analysis (one input copy)  %12s\n", fmtNs(b))
	fmt.Printf("  copy on every Part assignment    %12s (%.1fx slower)\n", fmtNs(a), a/b)
	fmt.Println()
}

func ablationAbort() {
	fmt.Println("=== §6 ablation: abort-check overhead per benchmark ===")
	for _, name := range []string{"mandelbrot", "blur", "histogram", "fnv1a"} {
		sz := size(name)
		on, err1 := bench.Prepare(name, bench.ImplCompiled, sz)
		off, err2 := bench.Prepare(name, bench.ImplCompiledNoAbort, sz)
		if err1 != nil || err2 != nil {
			fmt.Printf("  %-12s failed\n", name)
			continue
		}
		nsOn := measure(on, 300*time.Millisecond)
		nsOff := measure(off, 300*time.Millisecond)
		fmt.Printf("  %-12s abort on %12s   off %12s   overhead %.1f%%\n",
			name, fmtNs(nsOn), fmtNs(nsOff), 100*(nsOn-nsOff)/nsOff)
	}
	fmt.Println()
}

func ablationConstants() {
	fmt.Println("=== §6 ablation: constant-array handling in PrimeQ (paper: 1.5x degradation) ===")
	sz := size("primeq") / 4
	run, err := bench.PreparePrimeQPerCandidate(sz, false)
	if err != nil {
		fmt.Println("  failed:", err)
		return
	}
	naive, err := bench.PreparePrimeQPerCandidate(sz, true)
	if err != nil {
		fmt.Println("  failed:", err)
		return
	}
	opt := measure(run, 300*time.Millisecond)
	nv := measure(naive, 300*time.Millisecond)
	fmt.Printf("  interned constant array   %12s\n", fmtNs(opt))
	fmt.Printf("  per-call rebuilt array    %12s (%.2fx slower)\n", fmtNs(nv), nv/opt)
	fmt.Println()
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	}
	return fmt.Sprintf("%.0fns", ns)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	if len(s) > 60 {
		return s[:60]
	}
	return s
}
