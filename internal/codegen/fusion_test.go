package codegen

import (
	"strings"
	"testing"

	"wolfc/internal/binding"
	"wolfc/internal/infer"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// compileSrcFuse runs the whole pipeline at a given fusion level.
func compileSrcFuse(t *testing.T, src string, fuse int) *Program {
	t.Helper()
	return compileSrcWith(t, src, fuse, passes.DefaultOptions())
}

// compileSrcWith runs the whole pipeline with the given pass options.
func compileSrcWith(t *testing.T, src string, fuse int, opts passes.Options) *Program {
	t.Helper()
	env := macro.DefaultEnv()
	e, err := env.Expand(parser.MustParse(src), nil)
	if err != nil {
		t.Fatalf("macro: %v", err)
	}
	e = macro.ExpandSlots(e)
	res, err := binding.Analyze(e)
	if err != nil {
		t.Fatalf("binding: %v", err)
	}
	tenv := types.Builtin()
	mod, err := wir.Lower(res, tenv)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := infer.Infer(mod, tenv); err != nil {
		t.Fatalf("infer: %v", err)
	}
	if err := passes.RunPipeline(mod, &passes.Context{Env: tenv, Opts: opts}); err != nil {
		t.Fatalf("passes: %v", err)
	}
	prog, err := CompileWithOptions(mod, CompileOptions{FuseLevel: fuse})
	if err != nil {
		t.Fatalf("codegen (fuse=%d): %v", fuse, err)
	}
	return prog
}

// walkRegions visits every region of the tree, parents first.
func walkRegions(seq []*region, visit func(*region)) {
	for _, r := range seq {
		visit(r)
		walkRegions(r.kids, visit)
	}
}

// totalSteps counts the step closures of Main's region tree at a fusion
// level: every block's, every edge's moves and every Return's.
func totalSteps(t *testing.T, p *Program, fuse int) int {
	t.Helper()
	n := 0
	_, err := eachFunction(p.Module, CompileOptions{FuseLevel: fuse}, func(g *gen) error {
		if err := g.prepare(); err != nil || g.fn.Name != "Main" {
			return err
		}
		tree, err := g.regions()
		walkRegions(tree, func(r *region) {
			var sts []step
			switch r.kind {
			case regionBlock:
				sts, err = g.blockSteps(nil, r.block, false)
			case regionEdge:
				sts, err = g.phiMoveSteps(r.block, r.to)
			case regionReturn:
				var st step
				if st, err = g.returnStep(r.block.Term()); st != nil {
					sts = []step{st}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(sts)
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// fusionCorpus exercises every evaluator family: checked integer
// arithmetic, float/complex chains, comparisons, conversions, bit ops,
// Part loads and stores at rank 1 and 2, and phi-edge fusion of loop
// induction updates.
var fusionCorpus = []struct {
	name string
	src  string
	args []any
	want any
}{
	{"int-madd-loop", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i = i + 1]; s]]`,
		[]any{int64(1000)}, int64(333833500)},
	{"int-mixed-chain", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n,
				s = Mod[s*31 + Quotient[i*i + 7, 3] - Min[s, i] + Max[i, 5], 100003];
				s = s + BitXor[BitAnd[i, 255], BitOr[s, 1]];
				i = i + 1];
			s]]`,
		[]any{int64(500)}, nil},
	{"int-abs-sign-evenq", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n,
				s = s + If[EvenQ[i], Abs[5 - i], Sign[i - 7]*2];
				i = i + 1];
			s]]`,
		[]any{int64(100)}, nil},
	{"real-poly-loop", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0., x = 0.5, i = 1},
			While[i <= n, s = s + x*x - s*0.25 + 1.5; x = x*1.0001; i = i + 1];
			s]]`,
		[]any{int64(200)}, nil},
	{"real-math-chain", `Function[{Typed[x, "Real64"]},
		Sqrt[Abs[Sin[x]*Cos[x] + Exp[-x]]] + Floor[x]*1. + Ceiling[x/2.]*1.]`,
		[]any{2.75}, nil},
	{"real-mixed-int", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0., i = 1},
			While[i <= n, s = s + 1./i + i*0.5; i = i + 1]; s]]`,
		[]any{int64(64)}, nil},
	{"complex-iteration", `Function[{Typed[c, "ComplexReal64"]},
		Module[{z = c, k = 0},
			While[k < 16 && Re[z]*Re[z] + Im[z]*Im[z] < 4., z = z^2 + c; k = k + 1];
			k]]`,
		[]any{complex(-0.5, 0.3)}, nil},
	{"bool-chain", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n,
				If[!EvenQ[i] && i*3 > n, s = s + 1];
				i = i + 1];
			s]]`,
		[]any{int64(90)}, nil},
	{"part-load-store-rank1", `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0, n], s = 0, i = 1},
			While[i <= n, v[[i]] = i*i + 1; i++];
			i = 1;
			While[i <= n, s = Mod[s*31 + v[[i]]*2 - 1, 100003]; i++];
			s]]`,
		[]any{int64(128)}, nil},
	{"part-rank2-trace", `Function[{Typed[n, "MachineInteger"]},
		Module[{m = ConstantArray[0, {n, n}], i = 1, j = 1, s = 0},
			While[i <= n, j = 1; While[j <= n, m[[i, j]] = i*10 + j*j; j++]; i++];
			i = 1;
			While[i <= n, s = s + m[[i, i]]*3 - 1; i++];
			s]]`,
		[]any{int64(9)}, nil},
	{"real-vector-update", `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0., n], s = 0., i = 1},
			While[i <= n, v[[i]] = 1./i + 0.25*i; i++];
			i = 1;
			While[i <= n, s = s + v[[i]]*v[[i]]; i++];
			s]]`,
		[]any{int64(80)}, nil},
}

// TestFuseLevelsAgree asserts bit-identical results across both fusion
// levels on the corpus.
func TestFuseLevelsAgree(t *testing.T) {
	for _, tc := range fusionCorpus {
		levels := map[string]int{"off": FuseOff, "full": FuseFull}
		results := map[string]any{}
		for name, lvl := range levels {
			prog := compileSrcFuse(t, tc.src, lvl)
			results[name] = prog.Main.CallValues(&RT{}, tc.args...)
		}
		if tc.want != nil && results["full"] != tc.want {
			t.Errorf("%s: fused = %v, want %v", tc.name, results["full"], tc.want)
		}
		for name, got := range results {
			if got != results["full"] {
				t.Errorf("%s: fuse=%s produced %v, fuse=full produced %v",
					tc.name, name, got, results["full"])
			}
		}
	}
}

// TestCallArgumentsReachTheirParameters calls a function of every signature
// that has a pass of its own (one or two Integer64 and Real64 arguments) and
// some that pass registers (a Boolean, a Complex, three arguments), with
// arguments that are trees, as operands of one tree, fused and not; a pass
// that put an argument in the wrong parameter or class changes the sum.
func TestCallArgumentsReachTheirParameters(t *testing.T) {
	const src = `Function[{Typed[n, "MachineInteger"]}, Module[{
		i1 = Function[{Typed[a, "MachineInteger"]}, 3*a + 1],
		f1 = Function[{Typed[a, "Real64"]}, 2.*a],
		ii = Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]}, 10*a - b],
		fi = Function[{Typed[a, "Real64"], Typed[b, "MachineInteger"]}, a - 10.*b],
		if2 = Function[{Typed[a, "MachineInteger"], Typed[b, "Real64"]}, 10.*a - b],
		ff = Function[{Typed[a, "Real64"], Typed[b, "Real64"]}, a < b],
		bo = Function[{Typed[a, "Boolean"]}, If[a, 1, 2]],
		co = Function[{Typed[z, "ComplexReal64"]}, Re[z]*Im[z]],
		iii = Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"], Typed[c, "MachineInteger"]}, 100*a + 10*b + c]},
		i1[n + 1] + 7*ii[n - 1, 2*n] + f1[n*0.5] + 3.*fi[n*0.25, n + 2] + 5.*if2[n - 3, n*1.5] +
			If[ff[n*1., 2.5], 1000, 2000] + bo[n > 2] + co[n*1.*Complex[0.125, 1.]] + iii[n, n + 1, n + 2]]]`
	// 16 + 7*22 + 4. + 3.*-59. + 5.*4. + 2000 + 1 + 2. + 456
	const want = 2476.
	opts := passes.DefaultOptions()
	opts.InlinePolicy = "none" // every helper stays a call
	for _, fuse := range []int{FuseFull, FuseOff} {
		prog := compileSrcWith(t, src, fuse, opts)
		if got := prog.Main.CallValues(&RT{}, int64(4)); got != want {
			t.Errorf("fuse %d: %v, want %v", fuse, got, want)
		}
	}
	regions, err := Regions(compileSrcWith(t, src, FuseFull, opts).Module, CompileOptions{FuseLevel: FuseFull})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(regions, ", call %"); got < 7 {
		t.Errorf("%d of the nine calls are nodes of a tree, want at least seven:\n%s", got, regions)
	}
}

// TestFusionReducesDispatch: the tight scalar loop must execute strictly
// fewer closure steps when fused — the whole point of the superinstruction
// pass.
func TestFusionReducesDispatch(t *testing.T) {
	src := `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i = i + 1]; s]]`
	on := compileSrcFuse(t, src, FuseFull)
	off := compileSrcFuse(t, src, FuseOff)
	sOn, sOff := totalSteps(t, on, FuseFull), totalSteps(t, off, FuseOff)
	if sOn >= sOff {
		t.Fatalf("fusion did not reduce steps: fused=%d unfused=%d", sOn, sOff)
	}
	// The loop body collapses to the abort poll plus at most one step per
	// live assignment chain; anything more means marking regressed.
	if sOff-sOn < 2 {
		t.Fatalf("fusion only removed %d steps (fused=%d unfused=%d)", sOff-sOn, sOn, sOff)
	}
}
