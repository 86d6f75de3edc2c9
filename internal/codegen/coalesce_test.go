package codegen

import (
	"strings"
	"testing"

	"wolfc/internal/binding"
	"wolfc/internal/infer"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// typedModule lowers and types src without running the pass pipeline.
func typedModule(t *testing.T, src string) (*wir.Module, *types.Env) {
	t.Helper()
	e, err := macro.DefaultEnv().Expand(parser.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := binding.Analyze(macro.ExpandSlots(e))
	if err != nil {
		t.Fatal(err)
	}
	tenv := types.Builtin()
	mod, err := wir.Lower(res, tenv)
	if err != nil {
		t.Fatal(err)
	}
	if err := infer.Infer(mod, tenv); err != nil {
		t.Fatal(err)
	}
	return mod, tenv
}

// A mutation chain lives in one object register: the loop-carried phi, the
// merge phi after the If and every Part assignment's result share it, so no
// edge of the loop moves the tensor.
func TestMutationChainSharesOneRegister(t *testing.T) {
	mod, tenv := typedModule(t, `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[n, "MachineInteger"]},
		Module[{a = v, i = 1, t = 0.},
			While[i < n, If[a[[i]] > a[[i + 1]], t = a[[i]]; a[[i]] = a[[i + 1]]; a[[i + 1]] = t]; i = i + 1];
			a]]`)
	if err := passes.RunPipeline(mod, &passes.Context{Env: tenv, Opts: passes.DefaultOptions()}); err != nil {
		t.Fatal(err)
	}
	f := mod.Main()
	g := &gen{prog: &Program{byName: map[string]*CFunc{}}, fn: f, cf: &CFunc{}, regs: map[wir.Value]reg{}, fuse: true}
	if err := g.generate(); err != nil {
		t.Fatal(err)
	}
	var chain []wir.Value
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			if objValue(phi) {
				chain = append(chain, phi)
			}
		}
		for _, in := range b.Instrs {
			if n := in.NativeName(); n == "setpart_1" {
				chain = append(chain, in)
			}
		}
	}
	if len(chain) < 4 {
		t.Fatalf("expected two phis and two assignments, found %d:\n%s", len(chain), f.String())
	}
	for _, v := range chain[1:] {
		if g.regs[v] != g.regs[chain[0]] {
			t.Errorf("%s sits in register %v, %s in %v:\n%s", v.Name(), g.regs[v], chain[0].Name(), g.regs[chain[0]], f.String())
		}
	}
}

// Two values that are live at once keep their own registers even though a
// phi connects them: the pre-loop tensor is read again after the loop.
func TestOverlappingTensorsKeepTheirRegisters(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{old = ConstantArray[0, 3], w = ConstantArray[1, 3], i = 1},
			w = old;
			While[i <= n, w[[i]] = i; i = i + 1];
			old[[1]]*1000 + w[[1]]*100 + old[[3]]*10 + w[[3]]]]`)
	if got := prog.Main.CallValues(&RT{}, int64(3)).(int64); got != 103 {
		t.Fatalf("got %d, want 103 (old untouched, w = {1, 2, 3})", got)
	}
}

// A reference that dies along one arm of a branch whose target has another
// predecessor is released on a split edge: build that critical edge by
// bypassing the empty else block, then check that the C lowering splits it
// (EmitC verifies that both paths balance) and that the closure code, which
// counts nothing, runs both arms.
func TestRefCountOnSplitCriticalEdge(t *testing.T) {
	mod, tenv := typedModule(t, `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[c, "Boolean"]},
		Module[{s = 1.}, If[c, s = v[[1]]]; s]]`)
	f := mod.Main()
	var els, merge *wir.Block
	for _, b := range f.Blocks {
		if b.Label == "else" && len(b.Instrs) == 1 && b.Term().Op == wir.OpBranch {
			els, merge = b, b.Term().Targets[0]
		}
	}
	if els == nil {
		t.Fatalf("no empty else block to bypass:\n%s", f.String())
	}
	branch := els.Preds[0]
	for i, tgt := range branch.Term().Targets {
		if tgt == els {
			branch.Term().Targets[i] = merge
		}
	}
	for i, p := range merge.Preds {
		if p == els {
			merge.Preds[i] = branch
		}
	}
	var kept []*wir.Block
	for _, b := range f.Blocks {
		if b != els {
			b.IDNum = len(kept)
			kept = append(kept, b)
		}
	}
	f.Blocks = kept

	opts := passes.DefaultOptions()
	opts.OptimizationLevel = 1 // no pass at this level adds a block to the edge
	if err := passes.RunPipeline(mod, &passes.Context{Env: tenv, Opts: opts, VerifyEach: true}); err != nil {
		t.Fatalf("%v\n%s", err, f.String())
	}
	src, err := EmitC(mod, tenv)
	if err != nil {
		t.Fatalf("%v\n%s", err, f.String())
	}
	if !strings.Contains(src, "/* edge */") {
		t.Fatalf("critical edge was not split:\n%s", src)
	}
	prog, err := Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	arg := runtime.NewTensor(runtime.KR64, 2)
	arg.F[0] = 42
	for c, want := range map[bool]float64{true: 42, false: 1} {
		if got := prog.Main.CallValues(&RT{}, arg, c).(float64); got != want {
			t.Errorf("c = %v: got %v, want %v", c, got, want)
		}
	}
}
