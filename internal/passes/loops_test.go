package passes

import (
	"testing"

	"wolfc/internal/types"
	"wolfc/internal/wir"
)

func TestFindLoopsNested(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1, j = 1},
			While[i <= n,
				j = 1;
				While[j <= n, s = s + 1; j = j + 1];
				i = i + 1];
			s]]`)
	f := mod.Main()
	loops := FindLoops(f)
	if len(loops) != 2 {
		t.Fatalf("want 2 natural loops, got %d", len(loops))
	}
	// One loop body must strictly contain the other (nesting).
	a, b := loops[0], loops[1]
	if len(a.Body) > len(b.Body) {
		a, b = b, a
	}
	if !b.Body[a.Header] {
		t.Fatal("inner loop header must lie inside the outer loop body")
	}
	for _, l := range loops {
		if !l.Body[l.Header] {
			t.Fatal("loop body must include its header")
		}
	}
}

func isNative(in *wir.Instr, name string) bool {
	return in.Op == wir.OpCall && in.NativeName() == name
}

// inLoopBody counts instructions matching pred inside any natural loop.
func inLoopBody(f *wir.Function, pred func(*wir.Instr) bool) int {
	loops := FindLoops(f)
	n := 0
	for _, l := range loops {
		for b := range l.Body {
			for _, in := range b.Instrs {
				if pred(in) {
					n++
				}
			}
		}
	}
	return n
}

func TestLICMHoistsInvariant(t *testing.T) {
	// n*n + 7 is loop-invariant... but integer multiply can throw, so it
	// must NOT be hoisted. The float invariant x*x is unchecked and must be.
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"], Typed[x, "Real64"]},
		Module[{s = 0., i = 1},
			While[i <= n, s = s + x*x; i = i + 1];
			s]]`)
	f := mod.Main()
	before := inLoopBody(f, func(in *wir.Instr) bool {
		return isNative(in, "binary_times") && types.Equal(types.TReal64, in.Ty)
	})
	if before != 1 {
		t.Fatalf("setup: want 1 float multiply in the loop, got %d", before)
	}
	if !LICM(f, FindLoops(f)) {
		t.Fatal("LICM reported no change")
	}
	after := inLoopBody(f, func(in *wir.Instr) bool {
		return isNative(in, "binary_times") && types.Equal(types.TReal64, in.Ty)
	})
	if after != 0 {
		t.Fatalf("x*x not hoisted: %d float multiplies remain in the loop", after)
	}
	if err := mod.Lint(); err != nil {
		t.Fatalf("lint after LICM: %v", err)
	}
}

func TestLICMDoesNotHoistThrowing(t *testing.T) {
	// i is the trip variable; n*n is invariant but overflow-checked, and
	// Quotient[100, n] is invariant but can divide by zero — both must stay
	// in the loop so a zero-trip call can never throw.
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n, s = s + n*n + Quotient[100, n]; i = i + 1];
			s]]`)
	f := mod.Main()
	LICM(f, FindLoops(f))
	if got := inLoopBody(f, func(in *wir.Instr) bool {
		return isNative(in, "binary_times") || isNative(in, "quotient_int")
	}); got < 2 {
		t.Fatalf("throwing invariants were hoisted: %d of 2 remain in loop", got)
	}
}

func TestStrengthReduction(t *testing.T) {
	// s += i*12 has an induction multiply; after reduction the loop body
	// carries an addition of a derived IV instead.
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n, s = s + i*12; i = i + 1];
			s]]`)
	f := mod.Main()
	before := inLoopBody(f, func(in *wir.Instr) bool { return isNative(in, "binary_times") })
	if before != 1 {
		t.Fatalf("setup: want 1 multiply in the loop, got %d", before)
	}
	if !StrengthReduce(f, FindLoops(f)) {
		t.Fatal("StrengthReduce reported no change")
	}
	DCE(f)
	after := inLoopBody(f, func(in *wir.Instr) bool { return isNative(in, "binary_times") })
	if after != 0 {
		t.Fatalf("induction multiply survived strength reduction (%d remain)", after)
	}
	if err := mod.Lint(); err != nil {
		t.Fatalf("lint after strength reduction: %v", err)
	}
}

// TestPassOrderingDCEAfterLICM is the pass-ordering contract: an invariant
// instruction that LICM hoists and whose value then turns out dead must be
// swept by the post-loop-opt DCE, not reach codegen in the preheader.
func TestPassOrderingDCEAfterLICM(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"], Typed[x, "Real64"]},
		Module[{s = 0, d = 0., i = 1},
			While[i <= n, d = x*x; s = s + i; i = i + 1];
			s]]`)
	f := mod.Main()
	countMul := func() int {
		return countInstrs(f, func(in *wir.Instr) bool {
			return isNative(in, "binary_times") && types.Equal(types.TReal64, in.Ty)
		})
	}
	if countMul() != 1 {
		t.Fatalf("setup: want the dead invariant multiply present, got %d", countMul())
	}
	if err := RunPipeline(mod, &Context{Env: types.Builtin(), Opts: DefaultOptions()}); err != nil {
		t.Fatalf("passes: %v", err)
	}
	// d is never read: the multiply must be gone from the whole function —
	// loop body AND preheader.
	if got := countMul(); got != 0 {
		t.Fatalf("hoisted-then-dead multiply survived to codegen input (%d remain)", got)
	}
}

// TestLoopOptimizePreservesSemantics compiles the same module with and
// without LoopOptimize through lint; execution equivalence is covered by
// the core differential suite.
func TestLoopOptimizeLint(t *testing.T) {
	srcs := []string{
		`Function[{Typed[n, "MachineInteger"], Typed[x, "Real64"]},
			Module[{s = 0., i = 1},
				While[i <= n, s = s + x*x + i*2.5; i = i + 1];
				s]]`,
		`Function[{Typed[n, "MachineInteger"]},
			Module[{s = 0, i = 1, j = 1},
				While[i <= n,
					j = 1;
					While[j <= n, s = s + j*4; j = j + 1];
					i = i + 1];
				s]]`,
	}
	for _, src := range srcs {
		mod := buildTWIR(t, src)
		LoopOptimize(mod)
		if err := mod.Lint(); err != nil {
			t.Fatalf("lint after LoopOptimize: %v\n%s", err, src)
		}
	}
}
