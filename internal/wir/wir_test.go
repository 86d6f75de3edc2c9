package wir

import (
	"strings"
	"testing"

	"wolfc/internal/binding"
	"wolfc/internal/expr"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

// lowerSrc runs macro expansion, binding analysis, and lowering.
func lowerSrc(t *testing.T, src string) *Module {
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
	mod, err := Lower(res, types.Builtin())
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return mod
}

func TestLowerStraightLine(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[x, "Real64"]}, x*x + 1]`)
	main := mod.Main()
	if main == nil {
		t.Fatal("no Main")
	}
	if len(main.Blocks) != 1 {
		t.Fatalf("straight-line code should be one block, got %d", len(main.Blocks))
	}
	s := mod.String()
	if !strings.Contains(s, "Call Times") || !strings.Contains(s, "Call Plus") {
		t.Fatalf("missing calls:\n%s", s)
	}
	if !strings.Contains(s, "Return") {
		t.Fatalf("missing return:\n%s", s)
	}
	// Parameter type recorded from the Typed annotation.
	if main.Params[0].Ty != types.TReal64 {
		t.Fatalf("param type = %v", main.Params[0].Ty)
	}
}

func TestLowerIfProducesPhi(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[x, "Integer64"]}, If[x > 0, x, -x]]`)
	main := mod.Main()
	phis := 0
	for _, b := range main.Blocks {
		phis += len(b.Phis)
	}
	if phis != 1 {
		t.Fatalf("want exactly 1 phi, got %d:\n%s", phis, mod.String())
	}
	if len(main.Blocks) != 4 {
		t.Fatalf("expected entry/then/else/join, got %d blocks", len(main.Blocks))
	}
}

// TestLowerDeletesDeadPhis: lowering keeps only the phis something reads, so
// no backend moves a value into one. The unused value of an If with no else
// arm would join a Null, and a variable a loop assigns and never reads makes
// a cycle of phis that only read each other.
func TestLowerDeletesDeadPhis(t *testing.T) {
	for _, tc := range []struct {
		src  string
		phis int
	}{
		{`Function[{Typed[n, "Integer64"]}, Module[{s = 0}, If[n > 3, s = n*2]; s + n]]`, 1},
		{`Function[{Typed[n, "Integer64"]}, Module[{s = 0, i = 0}, While[i < n, If[i > 2, s = i]; i = i + 1]; n]]`, 1},
		{`Function[{Typed[n, "Integer64"]}, Module[{s = 0, i = 0}, While[i < n, If[i > 2, s = i]; i = i + 1]; s]]`, 3},
	} {
		mod := lowerSrc(t, tc.src)
		phis := 0
		for _, b := range mod.Main().Blocks {
			phis += len(b.Phis)
		}
		if phis != tc.phis {
			t.Errorf("%s: %d phis, want %d:\n%s", tc.src, phis, tc.phis, mod)
		}
	}
}

func TestLowerWhileLoop(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[n, "Integer64"]},
		Module[{s = 0, i = 1},
			While[i <= n, s = s + i; i = i + 1];
			s]]`)
	main := mod.Main()
	s := mod.String()
	if !strings.Contains(s, "while_head") || !strings.Contains(s, "while_body") {
		t.Fatalf("loop blocks missing:\n%s", s)
	}
	// Loop-carried variables need phis in the header.
	var header *Block
	for _, b := range main.Blocks {
		if b.Label == "while_head" {
			header = b
		}
	}
	if header == nil || len(header.Phis) != 2 {
		t.Fatalf("header should carry phis for s and i:\n%s", s)
	}
	if err := mod.Lint(); err != nil {
		t.Fatal(err)
	}
}

func TestLowerSSAUniqueness(t *testing.T) {
	// Reassignment creates new SSA values, no mutation.
	mod := lowerSrc(t, `Function[{Typed[x, "Integer64"]},
		Module[{a = x}, a = a + 1; a = a*2; a]]`)
	if err := mod.Lint(); err != nil {
		t.Fatal(err)
	}
	s := mod.String()
	if strings.Count(s, "Call Plus") != 1 || strings.Count(s, "Call Times") != 1 {
		t.Fatalf("unexpected instruction mix:\n%s", s)
	}
}

func TestLowerLambdaAndIndirectCall(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Fold[Function[{a, b}, a + b], 0., v]]`)
	if len(mod.Funcs) != 2 {
		t.Fatalf("want Main + lambda, got %d funcs", len(mod.Funcs))
	}
	s := mod.String()
	if !strings.Contains(s, "CallIndirect") {
		t.Fatalf("fold must call the function value indirectly:\n%s", s)
	}
	if err := mod.Lint(); err != nil {
		t.Fatal(err)
	}
}

func TestLowerClosureCaptures(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[k, "Real64"], Typed[v, "Tensor"["Real64", 1]]},
		Map[Function[{x}, x*k], v]]`)
	s := mod.String()
	if !strings.Contains(s, "Closure") {
		t.Fatalf("capturing lambda must build a closure:\n%s", s)
	}
	lam := mod.Funcs[1]
	if lam.Name == "Main" {
		lam = mod.Funcs[0]
	}
	foundCapture := false
	for _, p := range lam.Params {
		if p.Capture {
			foundCapture = true
		}
	}
	if !foundCapture {
		t.Fatal("lambda must have a capture parameter")
	}
}

func TestLowerPartAssignmentRebinds(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Module[{w = v}, w[[1]] = 2.; w]]`)
	s := mod.String()
	if !strings.Contains(s, "Native`SetPart") {
		t.Fatalf("missing SetPart:\n%s", s)
	}
	// The returned value must be the SetPart result, not the original.
	main := mod.Main()
	var ret *Instr
	for _, b := range main.Blocks {
		if tm := b.Term(); tm != nil && tm.Op == OpReturn {
			ret = tm
		}
	}
	if ret == nil || len(ret.Args) != 1 {
		t.Fatal("no return")
	}
	ri, ok := ret.Args[0].(*Instr)
	if !ok || ri.Callee != "Native`SetPart" {
		t.Fatalf("return should see the rebound tensor, got %v", ret.Args[0].Name())
	}
}

func TestLowerConstantArray(t *testing.T) {
	// Literal lists become constants (§6 PrimeQ's embedded seed table).
	mod := lowerSrc(t, `Function[{Typed[i, "Integer64"]}, Part[{2, 3, 5, 7, 11}, i]]`)
	s := mod.String()
	if strings.Contains(s, "Native`List") {
		t.Fatalf("literal list must be a constant, not a construction:\n%s", s)
	}
	if !strings.Contains(s, "Call Part") {
		t.Fatalf("missing Part call:\n%s", s)
	}
}

func TestLowerDynamicList(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[x, "Real64"]}, {x, x + 1.}]`)
	s := mod.String()
	if !strings.Contains(s, "Native`List") {
		t.Fatalf("dynamic list must construct:\n%s", s)
	}
}

func TestLowerSymbolicConstants(t *testing.T) {
	// Unbound symbols lower to Expression constants (F8).
	mod := lowerSrc(t, `Function[{Typed[a, "Expression"]}, a + zzUnboundSymbol]`)
	s := mod.String()
	if !strings.Contains(s, "zzUnboundSymbol") {
		t.Fatalf("symbolic constant lost:\n%s", s)
	}
}

func TestLowerBreakContinue(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[n, "Integer64"]},
		Module[{i = 0},
			While[True,
				If[i >= n, Break[]];
				i = i + 1];
			i]]`)
	if err := mod.Lint(); err != nil {
		t.Fatalf("break lowering broke SSA: %v\n%s", err, mod.String())
	}
}

func TestLowerReturn(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[x, "Integer64"]},
		If[x < 0, Return[0]];
		x]`)
	if err := mod.Lint(); err != nil {
		t.Fatal(err)
	}
	returns := 0
	for _, b := range mod.Main().Blocks {
		if tm := b.Term(); tm != nil && tm.Op == OpReturn {
			returns++
		}
	}
	if returns != 2 {
		t.Fatalf("want 2 returns, got %d:\n%s", returns, mod.String())
	}
}

func TestLintCatchesBrokenIR(t *testing.T) {
	mod := &Module{}
	f := mod.NewFunction("Main")
	// Entry block with no terminator.
	if err := mod.Lint(); err == nil {
		t.Fatal("unterminated block must fail lint")
	}
	// Use of a foreign instruction.
	other := &Instr{IDNum: 99, Op: OpCall, Callee: "Foo"}
	ret := f.newInstr(OpReturn)
	ret.Args = []Value{other}
	ret.Block = f.Entry()
	f.Entry().Instrs = append(f.Entry().Instrs, ret)
	if err := mod.Lint(); err == nil {
		t.Fatal("undefined operand must fail lint")
	}
}

func TestMExprProvenance(t *testing.T) {
	mod := lowerSrc(t, `Function[{Typed[x, "Real64"]}, Sin[x]]`)
	found := false
	for _, b := range mod.Main().Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpCall && in.Callee == "Sin" {
				if src, ok := in.Prop("mexpr"); ok {
					if expr.FullForm(src.(expr.Expr)) == "Sin[x]" {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("Sin call must carry its source MExpr")
	}
}

func TestNestListLowering(t *testing.T) {
	// The full Figure 1 random-walk function must lower cleanly end to end.
	mod := lowerSrc(t, `Function[{Typed[len, "MachineInteger"]},
		NestList[
			Module[{arg = RandomReal[{0., 2.*Pi}]}, {-Cos[arg], Sin[arg]} + #] &,
			{0., 0.},
			len]]`)
	if err := mod.Lint(); err != nil {
		t.Fatalf("%v\n%s", err, mod.String())
	}
	s := mod.String()
	for _, needle := range []string{"Native`ListNew", "Native`RandomRealRange", "CallIndirect"} {
		if !strings.Contains(s, needle) {
			t.Fatalf("missing %s:\n%s", needle, s)
		}
	}
}
