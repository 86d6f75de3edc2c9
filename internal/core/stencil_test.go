package core

import (
	"testing"
	"time"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/infer"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
	"wolfc/internal/wir"
)

// Baseline tier tests (ISSUE 6, 13): the stencil configuration must be
// bit-identical to the full pipeline on the scalar fragment it covers, and
// must reject — not miscompile — everything outside it.

func newStencilCompiler() *Compiler {
	c := newCompiler()
	c.Stencil = true
	return c
}

// TestStencilDifferential compiles the same source through the baseline
// configuration and the full optimising pipeline and demands results
// byte-identical to the interpreter's. Covers arithmetic, mixed int/real,
// comparisons, branches/phis, elementary functions, integer bit operations,
// and results that leave the machine-integer range.
func TestStencilDifferential(t *testing.T) {
	cases := []struct {
		src  string
		args [][]string
	}{
		{`Function[{Typed[x, "MachineInteger"], Typed[y, "MachineInteger"]}, x*y + x - y]`,
			[][]string{{"7", "3"}, {"-4", "9"}}},
		{`Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, (x + y)*(x - y)/y]`,
			[][]string{{"2.5", "1.25"}, {"-3.5", "0.5"}}},
		{`Function[{Typed[x, "MachineInteger"], Typed[y, "Real64"]}, x + y*2.0 - x/y]`,
			[][]string{{"3", "1.5"}}},
		{`Function[{Typed[n, "MachineInteger"]}, If[n > 3, n*2, n - 1]]`,
			[][]string{{"7"}, {"2"}}},
		{`Function[{Typed[n, "MachineInteger"]}, n >= 4 && EvenQ[n]]`,
			[][]string{{"6"}, {"3"}, {"5"}}},
		{`Function[{Typed[x, "Real64"]}, Sin[x] + Cos[x]*Sqrt[x] + Exp[x]/Log[x + 2.0]]`,
			[][]string{{"1.7"}, {"0.3"}}},
		{`Function[{Typed[n, "MachineInteger"], Typed[m, "MachineInteger"]}, Max[Mod[n, m], Quotient[n, m]] + Abs[n - m]^2]`,
			[][]string{{"17", "5"}, {"-9", "4"}}},
		{`Function[{Typed[x, "Real64"]}, Floor[x] + Ceiling[x]*Round[x]]`,
			[][]string{{"2.6"}, {"-1.3"}}},
		{`Function[{Typed[n, "MachineInteger"], Typed[m, "MachineInteger"]}, BitAnd[n, m] + BitOr[n, 3] - BitXor[m, 5]]`,
			[][]string{{"12", "10"}}},
		{`Function[{Typed[x, "Real64"], Typed[n, "MachineInteger"]}, x^n + 2^n + x^2.0]`,
			[][]string{{"1.5", "3"}}},
		// Results outside the machine-integer range: compiled code must take
		// the F2 fallback, not wrap around.
		{`Function[{Typed[x, "Real64"]}, Floor[x]]`, [][]string{{"1.*^30"}}},
		{`Function[{Typed[x, "Real64"]}, Ceiling[x]]`, [][]string{{"-1.*^19"}}},
		{`Function[{Typed[x, "Real64"]}, Round[x]]`, [][]string{{"9.3*^18"}}},
		{`Function[{Typed[x, "MachineInteger"], Typed[n, "MachineInteger"]}, BitShiftLeft[x, n]]`,
			[][]string{{"1", "63"}, {"1", "64"}, {"5", "-1"}, {"-1", "63"}, {"3", "61"}}},
		{`Function[{Typed[x, "MachineInteger"], Typed[n, "MachineInteger"]}, BitShiftRight[x, n]]`,
			[][]string{{"5", "-1"}, {"-5", "70"}}},
		{`Function[{Typed[x, "MachineInteger"], Typed[n, "MachineInteger"]}, Quotient[x, n]]`,
			[][]string{{"-9223372036854775807 - 1", "-1"}}},
	}
	sc, fc := newStencilCompiler(), newCompiler()
	for _, cse := range cases {
		fn := parser.MustParse(cse.src)
		sccf, err := sc.FunctionCompile(fn)
		if err != nil {
			t.Fatalf("stencil compile %s: %v", cse.src, err)
		}
		fccf := compile(t, fc, cse.src)
		for _, args := range cse.args {
			ex := make([]expr.Expr, len(args))
			for i, a := range args {
				ex[i] = fc.Kernel.Eval(parser.MustParse(a))
			}
			ref := expr.InputForm(fc.Kernel.Eval(expr.New(fn, ex...)))
			for tier, ccf := range map[string]*CompiledCodeFunction{"stencil": sccf, "full": fccf} {
				out, err := ccf.Apply(ex)
				if err != nil {
					t.Fatalf("%s %v: %s apply: %v", cse.src, args, tier, err)
				}
				if got := expr.InputForm(out); got != ref {
					t.Errorf("%s %v: %s %s, interpreter %s", cse.src, args, tier, got, ref)
				}
			}
		}
	}
}

// TestStencilRecursion covers the self-recursion rewrite (CompileNamed):
// recursive calls become module-internal direct calls resolved at stencil
// assembly time.
func TestStencilRecursion(t *testing.T) {
	src := `Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, sfib[n - 1] + sfib[n - 2]]]`
	sc, fc := newStencilCompiler(), newCompiler()
	sccf, err := sc.CompileNamed("sfib", parser.MustParse(src))
	if err != nil {
		t.Fatalf("stencil compile: %v", err)
	}
	fccf, err := fc.CompileNamed("sfib", parser.MustParse(src))
	if err != nil {
		t.Fatalf("full compile: %v", err)
	}
	for _, n := range []string{"0", "1", "10", "20"} {
		got, want := apply(t, sccf, n), apply(t, fccf, n)
		if got != want {
			t.Errorf("sfib[%s]: stencil %s, full %s", n, got, want)
		}
	}
}

// TestStencilUnsupportedFallsOut: sources outside the machine-scalar
// fragment must fail stencil compilation (the tiering engine then takes
// the full pipeline) — never produce wrong code.
func TestStencilUnsupportedFallsOut(t *testing.T) {
	unsupported := []string{
		// List construction is outside the stencil fragment.
		`Function[{Typed[n, "MachineInteger"]}, {n, n + 1}]`,
		// Closures are outside the fragment.
		`Function[{Typed[n, "MachineInteger"]}, Function[{Typed[m, "MachineInteger"]}, m + n][n]]`,
	}
	sc, fc := newStencilCompiler(), newCompiler()
	for _, src := range unsupported {
		if _, err := sc.FunctionCompile(parser.MustParse(src)); err == nil {
			t.Errorf("stencil compile of %s unexpectedly succeeded", src)
		}
		// The full pipeline must still take it (so tiering's fallback works).
		if _, err := fc.FunctionCompile(parser.MustParse(src)); err != nil {
			t.Errorf("full compile of %s failed: %v", src, err)
		}
	}
	// The backend guards itself too: a module the solver typed and the pass
	// pipeline reference-counted never saw the quick annotator, and its
	// tensor values must not become baseline code.
	tensor := compile(t, fc, `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[i, "MachineInteger"]}, v[[i]] + 1.]`)
	if _, err := codegen.StencilCompile(tensor.Module); err == nil {
		t.Errorf("StencilCompile accepted a tensor-typed module")
	}
}

// TestStencilCompileLatency is a coarse in-suite guard for the point of the
// baseline tier: stencil compilation must be well under the full pipeline
// (scripts/verify.sh gates the backend ratio over the corpus, best-of-N).
// The ratio here was 4.1–6.1× against a 3× bound while the solver cost most
// of a full compile; since ISSUE 18 it reads 2.9–3.9×, and the bound is half
// of that.
func TestStencilCompileLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	src := `Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, slat[n - 1] + slat[n - 2]]]`
	fn := parser.MustParse(src)
	sc, fc := newStencilCompiler(), newCompiler()
	// Warm both paths once (lazy init, first-touch allocation).
	if _, err := sc.CompileNamed("slat", fn); err != nil {
		t.Fatalf("stencil compile: %v", err)
	}
	if _, err := fc.CompileNamed("slat", fn); err != nil {
		t.Fatalf("full compile: %v", err)
	}
	// The two are timed alternately, best of ten each: this host switches
	// between a fast and a slow state (18 vs 30 µs for the same compile), and
	// timing one after the other lets a switch in between decide the ratio.
	timed := func(c *Compiler, best time.Duration) time.Duration {
		t0 := time.Now()
		if _, err := c.CompileNamed("slat", fn); err != nil {
			t.Fatalf("compile: %v", err)
		}
		return min(best, time.Since(t0))
	}
	st, full := time.Hour, time.Hour
	for i := 0; i < 10; i++ {
		st, full = timed(sc, st), timed(fc, full)
	}
	if st*3 > full*2 {
		t.Errorf("stencil compile %v not ≥1.5× faster than full pipeline %v", st, full)
	}
	t.Logf("stencil %v, full pipeline %v (%.1fx)", st, full, float64(full)/float64(st))
}

func BenchmarkStencilCompile(b *testing.B) {
	fn := parser.MustParse(`Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, sbf[n - 1] + sbf[n - 2]]]`)
	c := newStencilCompiler()
	if _, err := c.CompileNamed("sbf", fn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompileNamed("sbf", fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullCompile(b *testing.B) {
	fn := parser.MustParse(`Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, sbf[n - 1] + sbf[n - 2]]]`)
	c := newCompiler()
	if _, err := c.CompileNamed("sbf", fn); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompileNamed("sbf", fn); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCorpus is the benchmark's compile corpus as far as it is plain files:
// the nine programs and the six cold-start kernels.
func benchCorpus(tb testing.TB) []expr.Expr {
	tb.Helper()
	var fns []expr.Expr
	for _, name := range []string{"fnv1a", "mandelbrot", "primeq", "blur", "histogram", "qsort", "dot", "randomwalk",
		"mandelcount", "convgrid", "horner", "gcdsum", "square", "rhalf"} {
		fn := benchProgram(tb, name)
		if name == "primeq" {
			// The benchmark splices the primes below 2^14 in; four type the same.
			fn = pattern.Substitute(fn, pattern.Bindings{expr.Sym("PRIMESEEDS"): parser.MustParse("{2, 3, 5, 7}")})
		}
		fns = append(fns, fn)
	}
	return fns
}

// BenchmarkInfer is type inference alone over the corpus: each iteration
// lowers every source outside the timer and infers them all inside.
func BenchmarkInfer(b *testing.B) {
	c, fns := newBenchCompiler(b), benchCorpus(b)
	mods := make([]*wir.Module, len(fns))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, fn := range fns {
			var err error
			if mods[j], err = c.BuildWIR(fn); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for _, mod := range mods {
			if err := infer.InferWith(mod, c.TypeEnv, c.reg()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestInferAllocs pins what one whole compile of the benchmark's mandelbrot
// allocates, source expression to callable. Inference used to be five sixths
// of it (31 124 allocations before ISSUE 18: a substitution map, a rebuilt
// type per unification level, an error string per overload that did not
// match).
func TestInferAllocs(t *testing.T) {
	c, mandelbrot := newCompiler(), benchProgram(t, "mandelbrot")
	n := testing.AllocsPerRun(10, func() {
		if _, err := c.FunctionCompile(mandelbrot); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one mandelbrot compile: %.0f allocations", n)
	if n > 6000 {
		t.Errorf("one mandelbrot compile allocates %.0f times, bound 6000", n)
	}
}

// warmStore compiles fns once on c over a fresh in-memory artifact store and
// drops the in-memory cache, so the next cached compile of any of them, on any
// compiler with c's configuration, is an artifact load.
func warmStore(tb testing.TB, c *Compiler, fns ...expr.Expr) {
	tb.Helper()
	coldCaches(tb)
	for _, fn := range fns {
		if _, err := c.FunctionCompileCached(fn); err != nil {
			tb.Fatal(err)
		}
	}
	ResetCompileCache()
}

// BenchmarkArtifactLoad is what a compile-cache hit on the store pays, over
// the corpus: each iteration drops the fronts and the program table outside
// the timer and asks for every source inside it —
// both keys (from the memo after the first round), the store read, the module
// decode and code generation.
func BenchmarkArtifactLoad(b *testing.B) {
	c, fns := newBenchCompiler(b), benchCorpus(b)
	warmStore(b, c, fns...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ResetCompileCache()
		b.StartTimer()
		for _, fn := range fns {
			_, rep, err := c.FunctionCompileCachedRequest(fn, CompileRequest{Collect: true})
			if err != nil || !rep.ArtifactHit {
				b.Fatalf("not an artifact load: %+v, %v", rep, err)
			}
		}
	}
}

// TestWarmLoadAllocs pins what one artifact load of the benchmark's
// mandelbrot allocates, source expression to callable, on a compiler that has
// keyed the source before; the reset drops the table's program, so every run
// decodes and generates. It was 866 before ISSUE 23 (the source printed
// twice, a type parsed per instruction, parameter and constant, a closure per
// forward reference), and a macro expansion more on a fresh compiler.
func TestWarmLoadAllocs(t *testing.T) {
	c, mandelbrot := newCompiler(), benchProgram(t, "mandelbrot")
	warmStore(t, c, mandelbrot)
	n := testing.AllocsPerRun(10, func() {
		ResetCompileCache()
		if _, rep, err := c.FunctionCompileCachedRequest(mandelbrot, CompileRequest{Collect: true}); err != nil || !rep.ArtifactHit {
			t.Fatalf("not an artifact load: %+v, %v", rep, err)
		}
	})
	t.Logf("one mandelbrot artifact load: %.0f allocations", n)
	if n > 700 {
		t.Errorf("one mandelbrot artifact load allocates %.0f times, bound 700", n)
	}
}

// BenchmarkResidentLoad is what every kernel after the first pays for the
// corpus: each round is a fresh compiler on a fresh kernel (made outside the
// timer), and every source is the program an earlier load generated, wrapped
// for it — both keys from the memo, the table lookup and wrap.
// BenchmarkArtifactLoad, which resets the cache and with it the table, is the
// decode path.
func BenchmarkResidentLoad(b *testing.B) {
	c, fns := newBenchCompiler(b), benchCorpus(b)
	warmStore(b, c, fns...)
	for _, fn := range fns {
		if _, err := c.FunctionCompileCached(fn); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := newBenchCompiler(b)
		b.StartTimer()
		for _, fn := range fns {
			_, rep, err := fresh.FunctionCompileCachedRequest(fn, CompileRequest{Collect: true})
			if err != nil || stageNames(rep) != "key resident" {
				b.Fatalf("not a resident load: %+v, %v", rep, err)
			}
		}
	}
}

// TestResidentLoadAllocs pins what a compile of the benchmark's mandelbrot
// allocates once its program is in the table: the kernel's fronts, and wrap's
// CompiledCodeFunction and metrics block. Each run drops the kernel's fronts
// (not the table), as a new kernel finds them.
func TestResidentLoadAllocs(t *testing.T) {
	c, mandelbrot := newCompiler(), benchProgram(t, "mandelbrot")
	warmStore(t, c, mandelbrot)
	if _, err := c.FunctionCompileCached(mandelbrot); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(10, func() {
		c.Kernel.ClearAssoc()
		if _, rep, err := c.FunctionCompileCachedRequest(mandelbrot, CompileRequest{Collect: true}); err != nil || stageNames(rep) != "key resident" {
			t.Fatalf("not a resident load: %+v, %v", rep, err)
		}
	})
	t.Logf("one mandelbrot resident load: %.0f allocations", n)
	if n > 30 {
		t.Errorf("one mandelbrot resident load allocates %.0f times, bound 30", n)
	}
}
