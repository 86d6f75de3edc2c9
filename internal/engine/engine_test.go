package engine_test

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"wolfc/internal/artifact"
	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/engine"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
)

// tierPol promotes fast: stencil after 2 dispatches, O2 upgrade after 4
// compiled calls, single worker for determinism-friendly queues.
func tierPol() core.TierPolicy {
	return core.TierPolicy{Threshold: 4, Workers: 1}
}

// feed drives enough rounds of f[1..6] through e for the definition to
// promote interpreter → stencil → O2, collecting every printed result.
func feed(t *testing.T, e *engine.Engine) []string {
	t.Helper()
	var outs []string
	for round := 0; round < 6; round++ {
		for i := int64(1); i <= 6; i++ {
			res, err := e.Eval(fmt.Sprintf("f[%d]", i), 0)
			if err != nil {
				t.Fatalf("%s: f[%d]: %v", e.ID, i, err)
			}
			outs = append(outs, expr.InputForm(res.Value))
		}
		e.WaitIdle() // drain background compiles between rounds
	}
	return outs
}

// TestIsolationDifferential is the ISSUE 8 acceptance test: two engines in
// one process define the same symbol name with different bodies, both
// promote through stencil → O2 while running concurrently (under -race),
// and each produces bit-identical outputs to its own single-engine run.
func TestIsolationDifferential(t *testing.T) {
	defA := "f[n_] := 2*n + 1"
	defB := "f[n_] := n*n - 1"

	solo := func(def string) []string {
		e := engine.New(engine.Options{Tiering: true, Tier: tierPol()})
		defer e.Close()
		if _, err := e.Eval(def, 0); err != nil {
			t.Fatal(err)
		}
		return feed(t, e)
	}
	wantA, wantB := solo(defA), solo(defB)

	eA := engine.New(engine.Options{ID: "iso-a", Tiering: true, Tier: tierPol()})
	defer eA.Close()
	eB := engine.New(engine.Options{ID: "iso-b", Tiering: true, Tier: tierPol()})
	defer eB.Close()
	if _, err := eA.Eval(defA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eB.Eval(defB, 0); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var gotA, gotB []string
	wg.Add(2)
	go func() { defer wg.Done(); gotA = feed(t, eA) }()
	go func() { defer wg.Done(); gotB = feed(t, eB) }()
	wg.Wait()

	if strings.Join(gotA, ",") != strings.Join(wantA, ",") {
		t.Errorf("engine A diverged from its solo run:\n got %v\nwant %v", gotA, wantA)
	}
	if strings.Join(gotB, ",") != strings.Join(wantB, ",") {
		t.Errorf("engine B diverged from its solo run:\n got %v\nwant %v", gotB, wantB)
	}

	for _, e := range []*engine.Engine{eA, eB} {
		s := e.Stats()
		if s.Promotions == 0 {
			t.Errorf("%s: definition never promoted", e.ID)
		}
		if s.StencilPromotions == 0 {
			t.Errorf("%s: promotion skipped the stencil tier", e.ID)
		}
		if s.Upgrades == 0 {
			t.Errorf("%s: stencil entry never upgraded to O2", e.ID)
		}
	}

	// The namespaces must really be disjoint: each engine holds its own
	// live entry for "f", and neither leaked into the process default.
	entA, okA := eA.Registry.Lookup("f")
	entB, okB := eB.Registry.Lookup("f")
	if !okA || !okB {
		t.Fatalf("expected a live registry entry for f in both engines (A %v, B %v)", okA, okB)
	}
	if entA == entB {
		t.Fatal("both engines share one registry entry for f")
	}
	if _, ok := fnreg.Default().Lookup("f"); ok {
		t.Fatal("engine promotion leaked into the process-default registry")
	}
}

// TestEvalTimeout checks that a request deadline rides the abort machinery:
// a runaway evaluation unwinds to $Aborted and is flagged as timed out.
func TestEvalTimeout(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	start := time.Now()
	res, err := e.Eval("While[True, 1]", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if expr.InputForm(res.Value) != "$Aborted" {
		t.Fatalf("result = %s, want $Aborted", expr.InputForm(res.Value))
	}
	if !res.TimedOut {
		t.Fatal("TimedOut not set")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("abort took %v", d)
	}
	// The engine stays usable and the stale flag does not kill the next
	// evaluation.
	res, err = e.Eval("1 + 1", time.Second)
	if err != nil || expr.InputForm(res.Value) != "2" {
		t.Fatalf("post-timeout eval = %s, %v", expr.InputForm(res.Value), err)
	}
}

// TestOutputCapture checks Print output lands in Result.Output, per call.
func TestOutputCapture(t *testing.T) {
	e := engine.New(engine.Options{})
	defer e.Close()
	res, err := e.Eval(`Print["hello"]; 42`, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "hello") {
		t.Fatalf("Output = %q, want it to contain hello", res.Output)
	}
	if expr.InputForm(res.Value) != "42" {
		t.Fatalf("Value = %s", expr.InputForm(res.Value))
	}
	res, err = e.Eval("1", 0)
	if err != nil || res.Output != "" {
		t.Fatalf("second eval Output = %q, want empty", res.Output)
	}
}

// TestCloseReleases checks engine shutdown frees what it owns: registry
// entries retire, kernel-associated state drops, Eval refuses.
func TestCloseReleases(t *testing.T) {
	e := engine.New(engine.Options{Tiering: true, Tier: tierPol()})
	if _, err := e.Eval("g[n_] := n + 7", 0); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := int64(0); i < 4; i++ {
			if _, err := e.Eval(fmt.Sprintf("g[%d]", i), 0); err != nil {
				t.Fatal(err)
			}
		}
		e.WaitIdle()
	}
	if len(e.Registry.Names()) == 0 {
		t.Fatal("expected a live registry entry before Close")
	}
	// FindRoot memoises a numerics compiler on the kernel.
	if _, err := e.Eval("FindRoot[x^2 - 2, {x, 1.0}]", 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Kernel.Assoc("numerics.compiler"); !ok {
		t.Fatal("numerics compiler memo missing before Close")
	}
	e.Close()
	e.Close() // idempotent
	if n := len(e.Registry.Names()); n != 0 {
		t.Fatalf("%d registry entries survive Close", n)
	}
	if _, ok := e.Kernel.Assoc("numerics.compiler"); ok {
		t.Fatal("kernel assoc state survives Close")
	}
	if _, err := e.Eval("1", 0); err != engine.ErrClosed {
		t.Fatalf("Eval after Close = %v, want ErrClosed", err)
	}
}

// TestCompiledObjectsAreEngineScoped: a CompiledCodeFunction object's id
// means something only in the engine that minted it. An engine handed
// another's id (or a stale one) must evaluate the object's own stored source,
// never the other tenant's code.
func TestCompiledObjectsAreEngineScoped(t *testing.T) {
	eA, eB := engine.New(engine.Options{}), engine.New(engine.Options{})
	defer eA.Close()
	defer eB.Close()
	res, err := eA.Eval(`FunctionCompile[Function[{Typed[x, "MachineInteger"]}, x + 41]]`, 0)
	if err != nil {
		t.Fatal(err)
	}
	obj := expr.InputForm(res.Value)
	if !strings.HasPrefix(obj, "CompiledCodeFunction[1, ") {
		t.Fatalf("engine A minted %s, want id 1", obj)
	}
	if res, _ = eA.Eval("CompiledCodeFunction[1, Function[{x}, 0]][1]", 0); expr.InputForm(res.Value) != "42" {
		t.Fatalf("engine A applying its own object: %s, want 42", expr.InputForm(res.Value))
	}
	if res, _ = eB.Eval("CompiledCodeFunction[1, Function[{x}, 0]][1]", 0); expr.InputForm(res.Value) != "0" {
		t.Fatalf("engine B ran engine A's code: got %s, want 0 (its own source's answer)", expr.InputForm(res.Value))
	}
}

// TestCloseReleasesCompiledFunctions: after Close, nothing reachable from a
// package-level variable holds what the engine compiled — neither through
// FunctionCompile objects nor through the tiering ladder — so a destroyed
// session is garbage. (The process-wide compile cache is a bounded LRU, not a
// leak; the test empties it to isolate everything else.)
func TestCloseReleasesCompiledFunctions(t *testing.T) {
	const src = `Function[{Typed[x, "MachineInteger"]}, x + 41]`
	collected := make(chan string, 2)
	func() {
		e := engine.New(engine.Options{Tiering: true, Tier: tierPol()})
		if _, err := e.Eval("cf = FunctionCompile["+src+"]; cf[1]", 0); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Eval("f[n_] := 2*n + 1", 0); err != nil {
			t.Fatal(err)
		}
		feed(t, e)
		// The compile cache hands back the function the session's object
		// holds; the registry entry holds the one the ladder installed.
		object, err := e.Compiler.FunctionCompileCached(parser.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		ent, ok := e.Registry.Lookup("f")
		if !ok || !ent.Installed() {
			t.Fatal("f was not promoted")
		}
		tiered := ent.Binding().Payload.(*core.CompiledCodeFunction)
		// The finalizers sit on the functions' metrics blocks, which only the
		// function keeps alive once Close has unlisted them: the function
		// itself is part of a cycle (function → compiler → kernel → builtins →
		// object table → function), and a finalizer inside a cycle never runs.
		runtime.SetFinalizer(object.Metrics, func(*obs.FuncMetrics) { collected <- "object" })
		runtime.SetFinalizer(tiered.Metrics, func(*obs.FuncMetrics) { collected <- "tiered" })
		e.Close()
	}()
	core.ResetCompileCache()
	deadline := time.After(10 * time.Second)
	for seen := 0; seen < 2; {
		runtime.GC()
		select {
		case <-collected:
			seen++
		case <-deadline:
			t.Fatalf("%d of 2 compiled functions of a closed engine are still reachable", 2-seen)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestResidentProgramsPinNoKernel: two engines that loaded one function from
// the artifact tier share its program, and closing them still releases both
// functions while the program stays resident — the resident table holds
// code, never a kernel, a compiler or a CompiledCodeFunction.
func TestResidentProgramsPinNoKernel(t *testing.T) {
	const src = `Function[{Typed[x, "MachineInteger"]}, x + 43]`
	prev := core.SetArtifactStore(artifact.OpenMemory())
	t.Cleanup(func() { core.SetArtifactStore(prev); core.ResetCompileCache() })
	core.ResetCompileCache()
	writer := engine.New(engine.Options{})
	defer writer.Close()
	if _, err := writer.Eval("FunctionCompile["+src+"][1]", 0); err != nil {
		t.Fatal(err)
	}
	collected := make(chan string, 2)
	var shared *codegen.Program
	func() {
		a, b := engine.New(engine.Options{}), engine.New(engine.Options{})
		var fns []*core.CompiledCodeFunction
		for _, e := range []*engine.Engine{a, b} {
			if _, err := e.Eval("cf = FunctionCompile["+src+"]; cf[1]", 0); err != nil {
				t.Fatal(err)
			}
			// An in-memory hit: the function the session's object holds.
			ccf, err := e.Compiler.FunctionCompileCached(parser.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			fns = append(fns, ccf)
		}
		if fns[0] == fns[1] || fns[0].Program != fns[1].Program {
			t.Fatal("the two engines must hold their own functions over one program")
		}
		shared = fns[0].Program
		runtime.SetFinalizer(fns[0].Metrics, func(*obs.FuncMetrics) { collected <- "a" })
		runtime.SetFinalizer(fns[1].Metrics, func(*obs.FuncMetrics) { collected <- "b" })
		a.Close()
		b.Close()
	}()
	core.InvalidateCompileCache(func(*core.CompiledCodeFunction) bool { return true })
	deadline := time.After(10 * time.Second)
	for seen := 0; seen < 2; {
		runtime.GC()
		select {
		case <-collected:
			seen++
		case <-deadline:
			t.Fatalf("%d of 2 functions over a resident program are still reachable", 2-seen)
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The program outlived them: the next engine is served it.
	c := engine.New(engine.Options{})
	defer c.Close()
	ccf, rep, err := c.Compiler.FunctionCompileCachedRequest(parser.MustParse(src), core.CompileRequest{Collect: true})
	if err != nil || !rep.ArtifactHit || ccf.Program != shared {
		t.Fatalf("the program did not stay resident: %+v, %v", rep, err)
	}
}

// BenchmarkEngineNewClose is what one session costs before its first
// request and after its last: a tiered engine (kernel, compiler, registry
// namespace, one tier worker) built and torn down.
func BenchmarkEngineNewClose(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.New(engine.Options{Tiering: true, Tier: tierPol()}).Close()
	}
}
