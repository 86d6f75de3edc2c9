// Command wolfc mirrors the paper's artifact workflow (§A.6): it compiles a
// Wolfram function and prints the requested stage — the macro-expanded AST,
// the untyped WIR, the typed TWIR, the closure backend's region tree, a C
// translation, WVM bytecode — or runs
// the compiled function on arguments.
//
// Examples:
//
//	wolfc -e 'Function[{Typed[arg, "MachineInteger"]}, arg + 1]' -stage twir
//	wolfc -e '...' -stage c
//	wolfc -e '...' -run '41'
//	wolfc -file prog.wl -stage ast
//	wolfc -e '...' -time-passes -stage twir   (per-stage/per-pass timing table)
//	wolfc -e '...' -verify-each -run '41'     (SSA lint between every pass)
//	wolfc -explain                            (print the pass pipeline)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wolfc/internal/core"
	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
)

func main() {
	var (
		src        = flag.String("e", "", "function source text to compile")
		file       = flag.String("file", "", "file containing the function source")
		stage      = flag.String("stage", "twir", "stage to print: ast | wir | twir | regions | c | cexe | wvm")
		runArgs    = flag.String("run", "", "comma-separated arguments; run instead of printing a stage")
		noAbort    = flag.Bool("no-abort-handling", false, "disable abort-check insertion")
		noInline   = flag.Bool("no-inline", false, "disable inlining (the §6 ablation)")
		optLevel   = flag.Int("O", 1, "optimisation level (0 disables folding/CSE/DCE)")
		timePasses = flag.Bool("time-passes", false, "print per-stage and per-pass timing/changed table to stderr")
		verifyEach = flag.Bool("verify-each", false, "run the SSA verifier after every pass")
		explain    = flag.Bool("explain", false, "print the pass pipeline for the selected options and exit")
		profileLvl = flag.Int("profile", 0, "block profiling level (> 0 emits per-block counters; with -run, print the hot-block table to stderr)")
		traceOut   = flag.String("trace-out", "", "write JSONL trace events (compile/invoke/fallback) to this file")
		artDir     = flag.String("artifact-dir", os.Getenv("WOLFC_ARTIFACT_DIR"), "persist compiled artifacts to this directory (warm starts skip the pipeline front half; also WOLFC_ARTIFACT_DIR)")
	)
	flag.Parse()

	if *artDir != "" {
		if _, err := core.EnableArtifactStore(*artDir); err != nil {
			fatal(fmt.Errorf("-artifact-dir: %w", err))
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		obs.SetTraceWriter(f)
		defer func() {
			obs.SetTraceWriter(nil)
			f.Close()
		}()
	}

	k := kernel.New()
	c := core.NewCompiler(k)
	c.Options.AbortHandling = !*noAbort
	if *noInline {
		c.Options.InlinePolicy = "none"
	}
	c.Options.OptimizationLevel = *optLevel
	c.ProfileLevel = *profileLvl

	if *explain {
		explainPipeline(os.Stdout, c)
		return
	}

	text := *src
	name := ""
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		text = string(data)
		name = *file
	}
	if text == "" {
		fmt.Fprintln(os.Stderr, "usage: wolfc -e '<Function[...]>' [-stage ast|wir|twir|regions|c|cexe|wvm] [-run args] [-time-passes] [-verify-each] [-explain]")
		os.Exit(2)
	}

	fn, srcTab, err := parser.ParseSource(name, text)
	if err != nil {
		fatal(err)
	}
	req := core.CompileRequest{
		Source:     srcTab,
		VerifyEach: *verifyEach,
		Collect:    *timePasses,
	}
	compile := func() *core.CompiledCodeFunction {
		var ccf *core.CompiledCodeFunction
		var rep *core.CompileReport
		var err error
		if *artDir != "" {
			// With a store attached the cached path probes it, so repeated
			// wolfc invocations of the same function skip the pipeline's
			// front half entirely; the report is this invocation's (what a
			// hit paid: key, decode, codegen — or key, resident, for a
			// program this process already holds, which one compile per
			// process never has), not the stored compile's.
			ccf, rep, err = c.FunctionCompileCachedRequest(fn, req)
		} else if ccf, err = c.FunctionCompileRequest(fn, req); err == nil {
			rep = ccf.Report
		}
		if err != nil {
			fatal(err)
		}
		printReport(os.Stderr, rep)
		return ccf
	}

	if *runArgs != "" {
		ccf := compile()
		var args []expr.Expr
		for _, a := range strings.Split(*runArgs, ",") {
			e, err := parser.Parse(strings.TrimSpace(a))
			if err != nil {
				fatal(fmt.Errorf("argument %q: %w", a, err))
			}
			v, err := k.Run(e)
			if err != nil {
				fatal(err)
			}
			args = append(args, v)
		}
		out, err := ccf.Apply(args)
		if err != nil {
			fatal(err)
		}
		fmt.Println(expr.InputForm(out))
		if *profileLvl > 0 {
			for _, f := range ccf.Program.Funcs {
				if f.Profiled() {
					fmt.Fprint(os.Stderr, f.ProfileTable())
				}
			}
		}
		return
	}

	switch strings.ToLower(*stage) {
	case "ast":
		out, err := c.ExpandAST(fn)
		if err != nil {
			fatal(diag.Resolve(err, srcTab))
		}
		fmt.Println(expr.FullForm(out))
	case "wir":
		mod, err := c.BuildWIR(fn)
		if err != nil {
			fatal(diag.Resolve(err, srcTab))
		}
		fmt.Print(mod.String())
	case "twir", "regions", "c", "wvm":
		// regions is the closure backend's region tree: how the TWIR's blocks
		// nest as loops, Ifs and sequences.
		ccf := compile()
		format := map[string]string{"twir": "TWIR", "regions": "Regions", "c": "C", "wvm": "WVM"}
		out, err := ccf.ExportString(format[strings.ToLower(*stage)])
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	case "cexe":
		// Self-contained C: the emitted source with the wolfrt runtime
		// inlined; compile the output directly with `cc prog.c -lm`.
		ccf := compile()
		out, err := ccf.ExportString("CStandalone")
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
	default:
		fatal(fmt.Errorf("unknown stage %q", *stage))
	}
}

// explainPipeline prints the staged pipeline and the pass schedule the
// current options produce.
func explainPipeline(w io.Writer, c *core.Compiler) {
	fmt.Fprintln(w, "stages: parse -> macro -> binding -> lower(WIR) -> infer(TWIR) -> resolve -> passes -> codegen")
	fmt.Fprintf(w, "pass pipeline (O%d, inline=%s, abort=%v):\n",
		c.Options.OptimizationLevel, c.Options.InlinePolicy, c.Options.AbortHandling)
	fmt.Fprint(w, c.PipelineDescription())
}

// printReport renders the compile report as the -time-passes table.
func printReport(w io.Writer, rep *core.CompileReport) {
	if rep == nil {
		return
	}
	fmt.Fprintln(w, "stage timings:")
	for _, s := range rep.Stages {
		fmt.Fprintf(w, "  %-12s %12s", s.Name, s.Duration)
		if n := rep.Solver; s.Name == "infer" && n != nil {
			fmt.Fprintf(w, "   %d alternatives, %d trials, %d commits, %d stalls", n.Alternatives, n.Trials, n.Commits, n.Stalls)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  %-12s %12s\n", "total", rep.TotalDuration())
	if rep.Passes == nil {
		return
	}
	fmt.Fprintln(w, "pass statistics:")
	fmt.Fprintf(w, "  %-22s %5s %8s %16s %12s\n", "pass", "runs", "changed", "instrs(in->out)", "time")
	for _, ps := range rep.Passes.Passes {
		fmt.Fprintf(w, "  %-22s %5d %8d %10d -> %3d %12s\n",
			ps.Name, ps.Runs, ps.Changed, ps.InstrsBefore, ps.InstrsAfter, ps.Duration)
	}
	for name, trips := range rep.Passes.Trips {
		fmt.Fprintf(w, "  fixpoint %q: %d trip(s)\n", name, trips)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wolfc:", err)
	os.Exit(1)
}
