// Command wolfrepl is an interactive session with the interpreter — the
// Wolfram Engine stand-in — with both compilers installed: the legacy
// Compile (bytecode/WVM) and the new FunctionCompile, callable exactly as
// in the paper's notebook sessions (Figure 1). Ctrl-C aborts the running
// evaluation without quitting the session (F3); a second Ctrl-C at the
// prompt exits.
//
// The session is one internal/engine Engine — the same isolated unit
// wolfserve hands to each tenant — so the REPL exercises the exact
// kernel + compiler + tiering + registry wiring the serving layer uses.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"wolfc/internal/core"
	"wolfc/internal/engine"
	"wolfc/internal/expr"
	"wolfc/internal/obs"
)

var (
	metricsAddr          = flag.String("metrics-addr", "", "serve live /metrics and /debug/funcs on this address for the session")
	traceOut             = flag.String("trace-out", "", "write JSONL trace events (compile/invoke/fallback) to this file")
	autoCompile          = flag.Bool("autocompile", false, "tiered execution: compile hot DownValue definitions in the background and dispatch them as compiled code")
	autoCompileThreshold = flag.Uint64("autocompile-threshold", 50, "invocation count at which a definition is promoted to the optimising tier; the stencil baseline tier is entered at a fifth of it, at least 2 (with -autocompile)")
	stencilOnly          = flag.Bool("autocompile-stencil-only", false, "pin hot definitions to the stencil baseline tier; never upgrade to the optimising backend")
	noStencil            = flag.Bool("autocompile-no-stencil", false, "skip the stencil baseline tier: promote hot definitions straight to the optimising backend")
	autoDrain            = flag.Bool("autocompile-drain", false, "wait for queued background promotions after every input: deterministic tier transitions for differential harnesses (with -autocompile)")
	artifactDir          = flag.String("artifact-dir", os.Getenv("WOLFC_ARTIFACT_DIR"), "persist compiled artifacts to this directory so later sessions warm-start from disk (also WOLFC_ARTIFACT_DIR)")
)

func main() {
	flag.Parse()
	if *stencilOnly && *noStencil {
		fmt.Fprintln(os.Stderr, "wolfrepl: -autocompile-stencil-only and -autocompile-no-stencil are mutually exclusive")
		os.Exit(2)
	}
	if *artifactDir != "" {
		if _, err := core.EnableArtifactStore(*artifactDir); err != nil {
			fmt.Fprintln(os.Stderr, "wolfrepl: -artifact-dir:", err)
			os.Exit(2)
		}
	}
	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wolfrepl:", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Printf("metrics: http://%s/metrics and /debug/funcs\n", srv.Addr())
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wolfrepl: -trace-out:", err)
			os.Exit(2)
		}
		obs.SetTraceWriter(f)
		defer func() {
			obs.SetTraceWriter(nil)
			f.Close()
		}()
	}

	e := engine.New(engine.Options{
		ID:       "repl",
		LegacyVM: true, // the legacy bytecode Compile, alongside FunctionCompile
		Tiering:  *autoCompile,
		Tier: core.TierPolicy{
			Threshold:      *autoCompileThreshold,
			DisableO2:      *stencilOnly,
			DisableStencil: *noStencil,
		},
	})
	defer e.Close()
	if *autoCompile {
		// Tiered execution (ISSUE 5): hot DownValue definitions are
		// compiled in the background and dispatched as compiled code.
		// Stats go to stderr on exit so stdout stays bit-identical to an
		// untiered session. The worker pool is drained before the snapshot
		// (and before the deferred e.Close retires the namespace) so
		// in-flight promotions are counted, not inflated by shutdown.
		defer func() {
			e.Tiering.Close()
			s := e.Stats()
			fmt.Fprintf(os.Stderr,
				"autocompile: %d symbols tracked, %d promoted (%d stencil, %d upgraded; %d installed now), %d compiled dispatches, %d guard misses, %d soft fallbacks, %d compile failures, %d retires, %d aborts\n",
				s.Tracked, s.Promotions, s.StencilPromotions, s.Upgrades, s.Installed, s.CompiledCalls, s.GuardMisses, s.SoftFallbacks, s.CompileFailures, s.Retires, s.Aborts)
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	busy := make(chan struct{}, 1)
	go func() {
		for range sig {
			select {
			case <-busy: // evaluation in flight: abort it (F3)
				e.Abort()
				busy <- struct{}{}
			default: // idle prompt: quit
				fmt.Println("\nGoodbye.")
				os.Exit(0)
			}
		}
	}()

	fmt.Println("Wolfram Language compiler reproduction — interactive session")
	fmt.Println("Compile[...] targets the bytecode WVM; FunctionCompile[...] the new compiler.")
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for {
		n++
		fmt.Printf("In[%d]:= ", n)
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" || strings.HasPrefix(line, "(*") && strings.HasSuffix(line, "*)") {
			n--
			continue
		}
		if line == "Quit" || line == "Exit" {
			return
		}
		busy <- struct{}{}
		res, err := e.Eval(line, 0)
		if *autoDrain && e.Tiering != nil {
			e.Tiering.WaitIdle()
		}
		<-busy
		fmt.Print(res.Output) // Print/message text, in evaluation order
		if err != nil {
			if msg, ok := strings.CutPrefix(err.Error(), "syntax: "); ok {
				fmt.Println("Syntax:", msg)
			} else {
				fmt.Println("Error:", err)
			}
			continue
		}
		if res.Value != nil && res.Value != expr.SymNull {
			fmt.Printf("Out[%d]= %s\n", n, expr.InputForm(res.Value))
		}
	}
}
