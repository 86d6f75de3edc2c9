package codegen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// pollingEngine counts abort polls and reports an abort from the abortAt-th
// on (never when abortAt is 0).
type pollingEngine struct{ polls, abortAt int }

func (e *pollingEngine) EvalExpr(x expr.Expr) (expr.Expr, error) { return x, nil }
func (e *pollingEngine) RandReal() float64                       { return 0 }
func (e *pollingEngine) RandInt(lo, hi int64) int64              { return lo }
func (e *pollingEngine) Aborted() bool {
	e.polls++
	return e.abortAt > 0 && e.polls >= e.abortAt
}

// TestAbortPollsBetweenFusedUnits: an AbortCheck runs exactly where TWIR puts
// it — once per function entry and once per trip of each loop — whatever the
// region tree and fusion make of the blocks around it. A loop whose body
// fuses to nothing but moves, a loop in a loop, an If in a loop, a loop left
// by a Break and one left by a Return all poll the same number of times fused
// and unfused, and a pending abort stops each of them at the poll it arrives
// on rather than letting the loop run on.
func TestAbortPollsBetweenFusedUnits(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		n         int64
		polls     int // entry + one per header entry
	}{
		{"fused-body", `Function[{Typed[n, "MachineInteger"]},
			Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i = i + 1]; s]]`, 20, 1 + 21},
		{"nested", `Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1, j = 1},
			While[i <= n, j = 1; While[j <= 4, s = s + i*j; j = j + 1]; i = i + 1]; s]]`, 3, 1 + 4 + 3*5},
		{"if-in-loop", `Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1},
			While[i <= n, If[EvenQ[i], s = s + i, s = s - 1]; i = i + 1]; s]]`, 9, 1 + 10},
		{"break", `Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1},
			While[i <= n, If[i > 5, Break[]]; s = s + i; i = i + 1]; s]]`, 9, 1 + 6},
		{"return-in-loop", `Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1},
			While[i <= n, If[i > 5, Return[s]]; s = s + i; i = i + 1]; -1]]`, 9, 1 + 6},
	} {
		var results []any
		for _, fuse := range []int{FuseFull, FuseOff} {
			prog := compileSrcFuse(t, tc.src, fuse)
			eng := &pollingEngine{}
			results = append(results, prog.Main.CallValues(&RT{Engine: eng}, tc.n))
			if eng.polls != tc.polls {
				t.Errorf("%s fuse=%d: %d abort polls, want %d", tc.name, fuse, eng.polls, tc.polls)
			}
			for at := 1; at <= tc.polls; at++ {
				eng := &pollingEngine{abortAt: at}
				func() {
					defer func() {
						if exc, ok := recover().(*runtime.Exception); !ok || exc.Kind != runtime.ExcAbort {
							t.Errorf("%s fuse=%d: abort at poll %d: got %v, want the abort exception", tc.name, fuse, at, exc)
						}
					}()
					prog.Main.CallValues(&RT{Engine: eng}, tc.n)
				}()
				if eng.polls != at {
					t.Errorf("%s fuse=%d: ran on to poll %d past the abort at poll %d", tc.name, fuse, eng.polls, at)
				}
			}
		}
		if results[0] != results[1] {
			t.Errorf("%s: fused %v, unfused %v", tc.name, results[0], results[1])
		}
	}
}

// The sum node evaluates and accumulates a chain's terms in source order, as
// the closure per operator it replaces did: random chains of +, − and
// literal× over registers, literals, Part reads and subtrees compute the same
// bits fused and unfused, infinities and signed zeros included, are NaN
// together, and a Part read out of range throws the same exception from
// whichever term holds it.
func TestSumNodeMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	leaves := []string{"x", "y", "2.5", "v[[i]]", "v[[j]]", "m[[i, j]]", "m[[j, i]]", "v[[3]]", "Sin[x]", "(x*y)", "v[[i + 1]]"}
	reads := func(leaf string) bool { return strings.Contains(leaf, "[[") }
	specials := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e308, math.Inf(1), math.Inf(-1), math.NaN()}
	sums := 0
	for trial := 0; trial < 60; trial++ {
		// A Part read that occurs twice is one instruction with two uses: it
		// does not fuse, so unfused code runs it in source order and fused
		// code before the chain. Which read throws first can then differ
		// (as it could before the sum node); the kind of exception cannot.
		var chain strings.Builder
		used, repeated := map[string]bool{}, false
		for k, n := 0, 3+rng.Intn(6); k < n; k++ {
			if k > 0 {
				chain.WriteString([]string{" + ", " - "}[rng.Intn(2)])
			}
			leaf := leaves[rng.Intn(len(leaves))]
			repeated = repeated || reads(leaf) && used[leaf]
			used[leaf] = true
			switch rng.Intn(3) {
			case 0:
				leaf = fmt.Sprintf("%g*%s", float64(rng.Intn(9)-4)+0.5, leaf)
			case 1:
				leaf = fmt.Sprintf("%s*%g", leaf, float64(rng.Intn(9)-4)+0.5)
			}
			chain.WriteString(leaf)
		}
		src := fmt.Sprintf(`Function[{Typed[x, "Real64"], Typed[y, "Real64"], Typed[v, "Tensor"["Real64", 1]],
			Typed[m, "Tensor"["Real64", 2]], Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]},
			Module[{r = %s}, If[Length[v] + Length[m] > 0, r, 0.]]]`, chain.String()) // v and m stay live past the chain, so their reads can fuse
		on, off := compileSrcFuse(t, src, FuseFull), compileSrcFuse(t, src, FuseOff)
		if out, err := Regions(on.Module, CompileOptions{}); err != nil {
			t.Fatal(err)
		} else if strings.Contains(out, ", sum ") {
			sums++
		}
		for round := 0; round < 12; round++ {
			v, m := runtime.NewTensor(runtime.KR64, 4), runtime.NewTensor(runtime.KR64, 3, 3)
			for k := range v.F {
				v.F[k] = specials[rng.Intn(len(specials))]
			}
			for k := range m.F {
				m.F[k] = rng.NormFloat64()
			}
			// Indices 1..3 are in range everywhere; 0, 4 and 5 are out of
			// range for some read, so about half the rounds throw.
			args := []any{specials[rng.Intn(len(specials))], rng.NormFloat64(), v, m, int64(rng.Intn(6)), int64(1 + rng.Intn(3))}
			run := func(p *Program) (res string) {
				defer func() {
					if exc, ok := recover().(*runtime.Exception); ok {
						if res = fmt.Sprint("exception ", exc.Kind); !repeated {
							res += ": " + exc.Msg
						}
					}
				}()
				f := p.Main.CallValues(&RT{}, args...).(float64)
				if math.IsNaN(f) {
					// Which NaN the sum of two NaNs is (sign, payload) is the
					// processor's pick of an operand, and which operand of
					// a + b is which there is the Go compiler's, closure by
					// closure: that a result is NaN is all that is defined.
					return "NaN"
				}
				return fmt.Sprintf("%016x", math.Float64bits(f))
			}
			if a, b := run(on), run(off); a != b {
				t.Fatalf("%s\nargs %v: fused %s, unfused %s", chain.String(), args, a, b)
			}
		}
	}
	if sums < 40 {
		t.Errorf("only %d of 60 chains compiled to a sum node: the test is not exercising it", sums)
	}
}

// sumTerms reads a chain into terms: sign, literal factor either way round,
// and the leaf kinds the generated node reads itself.
func TestSumTermsClassifyLeaves(t *testing.T) {
	// v and m are read again after the chain: a tensor released right after
	// its last read would keep that read from fusing.
	prog := compileSrcFuse(t, `Function[{Typed[x, "Real64"], Typed[v, "Tensor"["Real64", 1]], Typed[m, "Tensor"["Real64", 2]],
		Typed[i, "MachineInteger"]}, Module[{r = x - 2.*v[[i]] + m[[i, i]]*0.5 - 3. + Cos[x]}, If[Length[v] + Length[m] > 0, r, 0.]]]`, FuseFull)
	var got []string
	_, err := eachFunction(prog.Module, CompileOptions{}, func(g *gen) error {
		if err := g.prepare(); err != nil {
			return err
		}
		for _, b := range g.fn.Blocks {
			for _, in := range b.Instrs {
				ts, err := g.sumTerms(in)
				if err != nil {
					return err
				}
				if len(ts) != 5 {
					continue // an interior operator of the chain
				}
				for _, term := range ts {
					got = append(got, fmt.Sprintf("%d/%v/%v/%g", term.leaf, term.neg, term.scaled, term.coef))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("[%d/false/false/0 %d/true/true/2 %d/false/true/0.5 %d/true/false/0 %d/false/false/0]",
		sumReg, sumPart1, sumPart2, sumLit, sumEval)
	if fmt.Sprint(got) != want {
		t.Errorf("terms %v, want %s", got, want)
	}
}

// An irreducible CFG — a cycle entered at two blocks — has no region tree.
// This front end lowers none; should a pass ever make one, code generation
// must say so rather than run something else.
func TestIrreducibleCFGIsACodegenError(t *testing.T) {
	mod := &wir.Module{Typed: true}
	f := mod.NewFunction("Main")
	f.RetTy = types.TVoid
	entry, a, b := f.Entry(), f.NewBlock("a"), f.NewBlock("b")
	cond := &wir.Const{Expr: expr.SymTrue, Ty: types.TBool}
	jump := func(from *wir.Block, op wir.Op, args []wir.Value, to ...*wir.Block) {
		from.Instrs = append(from.Instrs, &wir.Instr{Op: op, Args: args, Targets: to, Block: from})
		for _, s := range to {
			s.Preds = append(s.Preds, from)
		}
	}
	jump(entry, wir.OpCondBranch, []wir.Value{cond}, a, b)
	jump(a, wir.OpBranch, nil, b)
	jump(b, wir.OpBranch, nil, a)
	if _, err := Compile(mod); err == nil || !strings.Contains(err.Error(), "irreducible") {
		t.Fatalf("Compile of a two-entry cycle: %v, want an irreducible-control-flow error", err)
	}
}
