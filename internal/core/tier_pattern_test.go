package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// Pattern-dispatch promotion tests (ISSUE 10): DownValues with head
// restrictions, /; guards, literal discrimination, and list destructuring
// compile to decision trees; every path stays bit-identical to the
// interpreter, and unmatched paths fall through as F2 guard misses.

// newPlainKernel is the untiered reference for differential checks.
func newPlainKernel(t *testing.T) *kernel.Kernel {
	t.Helper()
	k := kernel.New()
	k.Out = kernelDiscard{}
	Install(k)
	return k
}

type kernelDiscard struct{}

func (kernelDiscard) Write(p []byte) (int, error) { return len(p), nil }

// differential runs src on both kernels and fails on any divergence.
func differential(t *testing.T, tiered, plain *kernel.Kernel, src string) expr.Expr {
	t.Helper()
	got := runK(t, tiered, src)
	want, err := plain.Run(parser.MustParse(src))
	if err != nil {
		t.Fatalf("plain %s: %v", src, err)
	}
	if !expr.SameQ(got, want) {
		t.Fatalf("%s: tiered %s, interpreter %s", src, expr.InputForm(got), expr.InputForm(want))
	}
	return got
}

// A definition mixing a /; guard, an _Integer head restriction, and a
// literal rule promotes and serves every branch bit-identically.
func TestTierPatternGuardPromotion(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := newPlainKernel(t)

	defs := []string{
		`tpg[0] = 99`,
		`tpg[x_Integer /; x > 10] := x * 2`,
		`tpg[x_Integer] := x + 1`,
	}
	for _, d := range defs {
		runK(t, k, d)
		if _, err := plain.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		differential(t, k, plain, fmt.Sprintf("tpg[%d]", i))
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tpg")) {
		t.Fatalf("tpg was not promoted; stats %+v", tr.Stats())
	}
	// Every branch of the compiled tree: literal, guard-true, guard-false.
	differential(t, k, plain, `{tpg[0], tpg[25], tpg[7], tpg[11], tpg[10]}`)
	if tr.Stats().CompiledCalls == 0 {
		t.Fatal("no dispatches were served by compiled code")
	}
}

// A symbol whose only rules are guarded compiles with a pattern-miss leaf:
// arguments no rule covers raise the compiled miss, which lands as an F2
// guard miss — the interpreter re-dispatches and returns the unevaluated
// call, exactly as an untiered kernel would — and never retires the entry.
func TestTierPatternMissFallthrough(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := newPlainKernel(t)

	defs := []string{`tpm[x_Integer /; x > 10] := x - 10`}
	for _, d := range defs {
		runK(t, k, d)
		if _, err := plain.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		differential(t, k, plain, `tpm[100]`)
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tpm")) {
		t.Fatalf("tpm was not promoted; stats %+v", tr.Stats())
	}
	base := tr.Stats()
	// Guard-false path: the compiled tree reaches its miss leaf, the
	// interpreter takes over, and (no rule matching) the call returns
	// unevaluated.
	got := differential(t, k, plain, `tpm[3]`)
	if expr.InputForm(got) != "tpm[3]" {
		t.Fatalf("miss path evaluated to %s", expr.InputForm(got))
	}
	// Kind mismatch (a Real into the Integer64 slot) is also a guard miss,
	// not a coercion: the interpreter must see the original argument.
	differential(t, k, plain, `tpm[3.5]`)
	differential(t, k, plain, `tpm["s"]`)
	st := tr.Stats()
	if st.GuardMisses <= base.GuardMisses {
		t.Fatalf("expected guard misses to grow: %d -> %d", base.GuardMisses, st.GuardMisses)
	}
	if st.SoftFallbacks != base.SoftFallbacks {
		t.Fatalf("misses must not count as soft failures: %d -> %d", base.SoftFallbacks, st.SoftFallbacks)
	}
	if st.Retires != base.Retires {
		t.Fatal("a pattern miss retired the compiled entry")
	}
	if !tr.Compiled(expr.Sym("tpm")) {
		t.Fatal("tpm lost its compiled tier after misses")
	}
	// The entry still serves matching arguments.
	differential(t, k, plain, `tpm[42]`)
}

// Symbolic differentiation never promotes: its arguments are expressions, so
// no call sketches to machine kinds, the dispatch hook turns each one down
// before any analysis, and the kernel's own rules answer — however hot the
// symbol runs. (The run-time cost of turning a call down is the benchmark's
// kernel.run_us.symbolic.)
func TestTierPatternSymbolicWorkloadStaysInterpreted(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := newPlainKernel(t)
	for _, d := range []string{
		`d[x_, x_] := 1`,
		`d[c_Integer, x_] := 0`,
		`d[u_ + v_, x_] := d[u, x] + d[v, x]`,
		`d[u_*v_, x_] := d[u, x]*v + u*d[v, x]`,
		`d[u_^n_Integer, x_] := n*u^(n - 1)*d[u, x]`,
	} {
		runK(t, k, d)
		if _, err := plain.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		differential(t, k, plain, `d[(x^5)*(x^3 + x^2), x]`)
	}
	tr.WaitIdle()
	if st := tr.Stats(); st.Promotions != 0 || st.CompiledCalls != 0 || st.CompileFailures != 0 || tr.Compiled(expr.Sym("d")) {
		t.Fatalf("the symbolic workload reached the compiler: %+v", st)
	}
}

// List destructuring promotes against a homogeneous machine-list sketch;
// length mismatches and mixed lists fall back to the interpreter.
func TestTierPatternListDestructuring(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := newPlainKernel(t)

	defs := []string{
		`tpl[{x_, y_}] := x * 10 + y`,
		`tpl[{x_}] := -x`,
	}
	for _, d := range defs {
		runK(t, k, d)
		if _, err := plain.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		differential(t, k, plain, fmt.Sprintf("tpl[{%d, %d}]", i, i+1))
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tpl")) {
		t.Fatalf("tpl was not promoted; stats %+v", tr.Stats())
	}
	differential(t, k, plain, `{tpl[{7, 3}], tpl[{4}]}`)
	// Length no rule covers: compiled miss leaf, interpreter returns the
	// call unevaluated.
	differential(t, k, plain, `tpl[{1, 2, 3}]`)
	// A mixed list never fits the tensor sketch: strict-kind guard miss.
	differential(t, k, plain, `tpl[{1, 2.5}]`)
	if tr.Stats().CompiledCalls == 0 {
		t.Fatal("no dispatches were served by compiled code")
	}
}

// A pattern variable that shares its name with a defined function is not a
// call to it: dot2's d_ must not make dot2 wait for a promotion partner d
// that, with no machine-argument calls of its own, never comes.
func TestTierPatternVariableNamedLikeAFunction(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := newPlainKernel(t)
	for _, d := range []string{
		`d[x_Integer] := x`,
		`dot2[{a_, b_}, {c_, d_}] := a*c + b*d`,
	} {
		runK(t, k, d)
		if _, err := plain.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		differential(t, k, plain, fmt.Sprintf("dot2[{%d, %d}, {%d, 3}]", i, i+1, 2*i))
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("dot2")) {
		t.Fatalf("dot2 was not promoted; stats %+v", tr.Stats())
	}
	before := tr.Stats().CompiledCalls
	differential(t, k, plain, `{dot2[{7, 3}, {2, 5}], dot2[{1.5, 2.}, {4., 0.25}], d[9]}`)
	if tr.Stats().CompiledCalls == before {
		t.Fatal("promoted dot2 was not served by compiled code")
	}
}

// Rule order is the matcher's: an earlier guarded rule must be tried (its
// guard evaluated) before a later unconditional rule wins.
func TestTierPatternRuleOrder(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := newPlainKernel(t)

	defs := []string{
		`tpo[x_ /; Mod[x, 3] == 0] := x + 1000`,
		`tpo[x_ /; Mod[x, 2] == 0] := x + 100`,
		`tpo[x_] := x`,
	}
	for _, d := range defs {
		runK(t, k, d)
		if _, err := plain.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		differential(t, k, plain, fmt.Sprintf("tpo[%d]", i))
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tpo")) {
		t.Fatalf("tpo was not promoted; stats %+v", tr.Stats())
	}
	// 6 hits both guards (first wins), 4 hits only the second, 5 neither.
	differential(t, k, plain, `{tpo[6], tpo[4], tpo[5], tpo[0], tpo[9], tpo[8]}`)
}

// Redefining a pattern-promoted symbol demotes it immediately — the new
// rules take effect on the very next call — and the symbol re-promotes
// against the new definition. Runs under -race in the race pass: the
// redefinition lands while compiled dispatches may still be in flight.
func TestTierPatternRedefinitionDemotion(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := newPlainKernel(t)

	run2 := func(src string) {
		runK(t, k, src)
		if _, err := plain.Run(parser.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	run2(`tpr[x_Integer /; x > 0] := x * 2`)
	for i := 0; i < 6; i++ {
		differential(t, k, plain, `tpr[21]`)
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tpr")) {
		t.Fatalf("tpr was not promoted; stats %+v", tr.Stats())
	}
	// Redefine: flip the guard and the body. The compiled entry must not
	// serve another call with the old semantics.
	run2(`tpr[x_Integer /; x > 0] := x * 3`)
	if tr.Compiled(expr.Sym("tpr")) {
		t.Fatal("tpr still compiled immediately after redefinition")
	}
	differential(t, k, plain, `tpr[21]`)
	// Re-warm and re-promote against the new rules.
	for i := 0; i < 8; i++ {
		differential(t, k, plain, `tpr[21]`)
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tpr")) {
		t.Fatalf("tpr did not re-promote; stats %+v", tr.Stats())
	}
	differential(t, k, plain, `{tpr[1], tpr[5], tpr[-2]}`)
}

// Concurrent guard misses against an installed entry: many goroutines
// hammer matching and non-matching arguments through their own kernels
// sharing nothing but this test's assertions — plus one kernel whose
// tiering serves misses while its own evaluator re-enters the dispatch
// hook. Exercised under -race in the race pass.
func TestTierPatternConcurrentMisses(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	runK(t, k, `tpc[x_Integer /; x > 10] := x - 10`)
	for i := 0; i < 6; i++ {
		runK(t, k, `tpc[100]`)
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tpc")) {
		t.Fatalf("tpc was not promoted; stats %+v", tr.Stats())
	}
	// The kernel itself is single-threaded by contract; concurrency here
	// is between compiled dispatches (which run outside the tiering lock)
	// and the stats/metrics surfaces other goroutines read.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Stats()
				_ = tr.Compiled(expr.Sym("tpc"))
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if got := runK(t, k, `tpc[100]`); expr.InputForm(got) != "90" {
			t.Fatalf("hit path: %s", expr.InputForm(got))
		}
		if got := runK(t, k, `tpc[3]`); expr.InputForm(got) != "tpc[3]" {
			t.Fatalf("miss path: %s", expr.InputForm(got))
		}
	}
	close(stop)
	wg.Wait()
	if !tr.Compiled(expr.Sym("tpc")) {
		t.Fatal("tpc lost its compiled tier under concurrent misses")
	}
}

// The checked-in fuzz corpus (cmd/patgen) replayed in-process: every line
// must evaluate identically on a tiered kernel (threshold 2, drained after
// each input so compiled tiers actually serve) and a plain interpreter.
// scripts/verify.sh runs the same corpus through the wolfrepl binary in
// all four modes; this test keeps `go test ./...` honest on its own.
func TestTierPatternCorpusDifferential(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "patterns", "corpus.wl"))
	if err != nil {
		t.Fatal(err)
	}
	k, tr := newTieredKernel(t, 2)
	plain := newPlainKernel(t)
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "(*") {
			continue
		}
		got, gerr := k.Run(parser.MustParse(line))
		tr.WaitIdle()
		want, werr := plain.Run(parser.MustParse(line))
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%s: tiered err %v, interpreter err %v", line, gerr, werr)
		}
		if gerr == nil && !expr.SameQ(got, want) {
			t.Fatalf("%s: tiered %s, interpreter %s", line, expr.InputForm(got), expr.InputForm(want))
		}
	}
	st := tr.Stats()
	if st.CompiledCalls == 0 {
		t.Fatalf("corpus never dispatched compiled code: %+v", st)
	}
	if st.GuardMisses == 0 {
		t.Fatalf("corpus never exercised the guard-miss fallback: %+v", st)
	}
}
