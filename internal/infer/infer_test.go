package infer

import (
	"strings"
	"testing"

	"wolfc/internal/binding"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// compileToTWIR runs the front half of the pipeline: macros, binding,
// lowering, inference.
func compileToTWIR(t *testing.T, src string) (*wir.Module, error) {
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
	return mod, Infer(mod, tenv)
}

func mustTWIR(t *testing.T, src string) *wir.Module {
	t.Helper()
	mod, err := compileToTWIR(t, src)
	if err != nil {
		t.Fatalf("infer: %v", err)
	}
	return mod
}

func TestInferSimpleArithmetic(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[x, "Real64"]}, x*x + 1]`)
	main := mod.Main()
	if main.RetTy != types.TReal64 {
		t.Fatalf("return type = %v, want Real64", main.RetTy)
	}
	// The integer literal 1 must have been promoted to Real64.
	s := mod.String()
	if !strings.Contains(s, "1.:Real64") {
		t.Fatalf("literal 1 should type (and normalise) to Real64:\n%s", s)
	}
}

// TestInferLiteralsSkipAClassRowTheyCannotMeet: with only literal operands a
// call's overload is decided before the literals' types, and the first row
// of Mod and N is Integral-polymorphic. No type a real literal may take is
// Integral, so the choice passes over that row to the Real64 one; integer
// literals still take the Integral row.
func TestInferLiteralsSkipAClassRowTheyCannotMeet(t *testing.T) {
	for src, want := range map[string]string{
		`Function[{}, Mod[0.5, 1.]]`:           "mod_real",
		`Function[{}, N[0.5]]`:                 "to_real64",
		`Function[{}, Mod[7, 3]]`:              "mod_int",
		`Function[{Typed[x, "Real64"]}, N[x]]`: "to_real64",
	} {
		mod := mustTWIR(t, src)
		call := mod.Main().Blocks[0].Instrs[0]
		if got := call.NativeName(); got != want {
			t.Errorf("%s calls %q, want %s:\n%s", src, got, want, mod.String())
		}
	}
}

func TestInferIntegerStaysInteger(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[n, "MachineInteger"]}, n*n + 1]`)
	if mod.Main().RetTy != types.TInt64 {
		t.Fatalf("return type = %v, want Integer64", mod.Main().RetTy)
	}
}

func TestInferOnlyArgumentTypesNeeded(t *testing.T) {
	// Paper §4.4: "it is enough to specify the input type arguments to a
	// function. The types of all other variables ... are inferred."
	mod := mustTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n, s = s + i*i; i = i + 1];
			s]]`)
	if mod.Main().RetTy != types.TInt64 {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
	// Every instruction is annotated.
	for _, b := range mod.Main().Blocks {
		for _, in := range b.Instrs {
			if in.Ty == nil {
				t.Fatalf("untyped instruction %s", in.Name())
			}
		}
	}
	if !mod.Typed {
		t.Fatal("module must be marked typed")
	}
}

func TestInferComparisonIsBoolean(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[x, "Real64"]}, x < 1]`)
	if mod.Main().RetTy != types.TBool {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
}

func TestInferMixedIntRealPromotion(t *testing.T) {
	// n is an integer, 0.5 is real: the mixed overload promotes to Real64,
	// mirroring the engine's arithmetic tower.
	mod := mustTWIR(t, `Function[{Typed[n, "MachineInteger"]}, n + 0.5]`)
	if mod.Main().RetTy != types.TReal64 {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
	// An explicit conversion also works.
	mod = mustTWIR(t, `Function[{Typed[n, "MachineInteger"]}, N[n] + 0.5]`)
	if mod.Main().RetTy != types.TReal64 {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
	// Strings never mix with numbers.
	if _, err := compileToTWIR(t, `Function[{Typed[s, "String"]}, s + 1]`); err == nil {
		t.Fatal("String + Integer must fail")
	}
}

func TestInferTensorOps(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[v, "Tensor"["Real64", 1]]}, v[[1]] + v[[2]]]`)
	if mod.Main().RetTy != types.TReal64 {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
	mod = mustTWIR(t, `Function[{Typed[v, "Tensor"["Real64", 1]]}, Length[v]]`)
	if mod.Main().RetTy != types.TInt64 {
		t.Fatalf("Length ret = %v", mod.Main().RetTy)
	}
}

func TestInferListNewThroughSetPart(t *testing.T) {
	// Native`ListNew's element type is inferred from the SetPart usage —
	// the mechanism behind Map/Table lowering.
	mod := mustTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Table[i*2, {i, 1, n}]]`)
	ret := mod.Main().RetTy
	if ret.String() != "Tensor[Integer64, 1]" {
		t.Fatalf("Table ret = %v", ret)
	}
	mod = mustTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Table[1.5*i, {i, 1, n}]]`)
	if mod.Main().RetTy.String() != "Tensor[Real64, 1]" {
		t.Fatalf("real Table ret = %v", mod.Main().RetTy)
	}
}

func TestInferLambda(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Map[Function[{x}, x*x], v]]`)
	if mod.Main().RetTy.String() != "Tensor[Real64, 1]" {
		t.Fatalf("Map ret = %v", mod.Main().RetTy)
	}
	// The lambda's parameter was inferred from the container element type.
	var lam *wir.Function
	for _, f := range mod.Funcs {
		if f.Name != "Main" {
			lam = f
		}
	}
	if lam == nil || lam.Params[0].Ty != types.TReal64 {
		t.Fatalf("lambda param = %v", lam.Params[0].Ty)
	}
}

func TestInferPolymorphicQualifierViolation(t *testing.T) {
	// Less requires Ordered; complex numbers are not ordered.
	_, err := compileToTWIR(t, `Function[{Typed[z, "ComplexReal64"]}, z < z]`)
	if err == nil {
		t.Fatal("Less on complex must fail the Ordered qualifier")
	}
	if !strings.Contains(err.Error(), "Ordered") && !strings.Contains(err.Error(), "overload") {
		t.Fatalf("error should mention the qualifier: %v", err)
	}
}

func TestInferStrings(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[s, "String"]}, StringLength[s]]`)
	if mod.Main().RetTy != types.TInt64 {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
	mod = mustTWIR(t, `Function[{Typed[s, "String"]}, StringJoin[s, s]]`)
	if mod.Main().RetTy != types.TString {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
}

func TestInferStringsOrdered(t *testing.T) {
	// Strings are Ordered (Min on strings works — paper's Min example).
	mod := mustTWIR(t, `Function[{Typed[a, "String"], Typed[b, "String"]}, If[a < b, a, b]]`)
	if mod.Main().RetTy != types.TString {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
}

func TestInferSymbolicExpression(t *testing.T) {
	// Paper §4.5: Expression-typed compiled code.
	mod := mustTWIR(t, `Function[{Typed[arg1, "Expression"], Typed[arg2, "Expression"]}, arg1 + arg2]`)
	if mod.Main().RetTy != types.TExpr {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
}

func TestInferConstantArray(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[i, "MachineInteger"]}, Part[{2, 3, 5, 7}, i]]`)
	if mod.Main().RetTy != types.TInt64 {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
	// Real usage promotes the whole constant array.
	mod = mustTWIR(t, `Function[{Typed[i, "MachineInteger"]}, Part[{2, 3, 5, 7}, i] + 0.5]`)
	if mod.Main().RetTy != types.TReal64 {
		t.Fatalf("promoted ret = %v", mod.Main().RetTy)
	}
}

func TestInferComplexArithmetic(t *testing.T) {
	// The Mandelbrot inner step: pixel^2 + pixel0 on complex values.
	mod := mustTWIR(t, `Function[{Typed[p, "ComplexReal64"]}, p^2 + p]`)
	if mod.Main().RetTy != types.TComplex {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
	mod = mustTWIR(t, `Function[{Typed[p, "ComplexReal64"]}, Abs[p]]`)
	if mod.Main().RetTy != types.TReal64 {
		t.Fatalf("Abs ret = %v", mod.Main().RetTy)
	}
}

func TestInferIfBranchesUnify(t *testing.T) {
	_, err := compileToTWIR(t, `Function[{Typed[x, "MachineInteger"]},
		If[x > 0, 1.5, "no"]]`)
	if err == nil {
		t.Fatal("branches of different types must fail")
	}
}

func TestInferRecursion(t *testing.T) {
	// Self-recursion through the module function name (cfib pattern, with
	// the self symbol rewritten to Main by the core pipeline; here we call
	// Main directly).
	mod := mustTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		If[n < 1, 1, Main[n - 1] + Main[n - 2]]]`)
	if mod.Main().RetTy != types.TInt64 {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
}

func TestInferUnknownFunctionError(t *testing.T) {
	_, err := compileToTWIR(t, `Function[{Typed[x, "Real64"]}, SomeUnknownThing[x]]`)
	if err == nil {
		t.Fatal("unknown functions must be reported")
	}
	if !strings.Contains(err.Error(), "KernelFunction") {
		t.Fatalf("error should point at the interpreter escape: %v", err)
	}
}

func TestInferOverloadRecorded(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[x, "Real64"]}, Sin[x]]`)
	found := false
	for _, b := range mod.Main().Blocks {
		for _, in := range b.Instrs {
			if in.Op == wir.OpCall && in.Callee == "Sin" {
				if d, ok := in.Prop("overload"); ok {
					def := d.(*types.FuncDef)
					if def.Native == "math_sin" {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("Sin call must record its chosen overload")
	}
}

func TestInferTensorArithmetic(t *testing.T) {
	// Listable threading: tensor + tensor (the random-walk step).
	mod := mustTWIR(t, `Function[{Typed[a, "Tensor"["Real64", 1]], Typed[b, "Tensor"["Real64", 1]]}, a + b]`)
	if mod.Main().RetTy.String() != "Tensor[Real64, 1]" {
		t.Fatalf("ret = %v", mod.Main().RetTy)
	}
	// Dynamic list + tensor.
	mod = mustTWIR(t, `Function[{Typed[x, "Real64"], Typed[b, "Tensor"["Real64", 1]]}, {x, x} + b]`)
	if mod.Main().RetTy.String() != "Tensor[Real64, 1]" {
		t.Fatalf("list+tensor ret = %v", mod.Main().RetTy)
	}
}

func TestInferRandomWalkEndToEnd(t *testing.T) {
	mod := mustTWIR(t, `Function[{Typed[len, "MachineInteger"]},
		NestList[
			Module[{arg = RandomReal[{0., 2.*Pi}]}, {-Cos[arg], Sin[arg]} + #] &,
			{0., 0.},
			len]]`)
	// A tensor of numeric tensors is one packed array.
	if mod.Main().RetTy.String() != "Tensor[Real64, 2]" {
		t.Fatalf("random walk ret = %v", mod.Main().RetTy)
	}
}

func TestInferUserDeclaredFunction(t *testing.T) {
	// The paper's Min declaration: polymorphic qualified scalar Min.
	tenv := types.NewEnv(types.Builtin())
	tenv.DeclareFunction(&types.FuncDef{
		Name: "MyMin",
		Type: tenv.MustParseSpec(parser.MustParse(
			`TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]`)),
		Impl: parser.MustParse("Function[{e1, e2}, If[e1 < e2, e1, e2]]"),
	})
	env := macro.DefaultEnv()
	e, err := env.Expand(parser.MustParse(`Function[{Typed[x, "Real64"]}, MyMin[x, 2.0]]`), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := binding.Analyze(macro.ExpandSlots(e))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := wir.Lower(res, tenv)
	if err != nil {
		t.Fatal(err)
	}
	if err := Infer(mod, tenv); err != nil {
		t.Fatal(err)
	}
	if mod.Main().RetTy != types.TReal64 {
		t.Fatalf("MyMin ret = %v", mod.Main().RetTy)
	}
}

// A diagnostic numbers the type variables it mentions from one, in the
// order it mentions them: the same ill-typed source reads the same on a
// server's thousandth compile as on its first.
func TestDiagnosticsDoNotDependOnProcessHistory(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`Function[{Typed[arg, "MachineInteger"]}, arg + "one"]`,
			"no overload of Plus matches {Integer64, String} -> ret$Main#1"},
		{`Function[{Typed[f, {"Integer64"} -> "Integer64"]}, f[1, 2]]`,
			"cannot unify {Integer64} -> Integer64 with {lit#1, lit#2} -> t1#3"},
	} {
		_, first := compileToTWIR(t, tc.src)
		if first == nil || !strings.Contains(first.Error(), tc.want) {
			t.Fatalf("%s:\n got %v\nwant %s", tc.src, first, tc.want)
		}
		for i := 0; i < 3; i++ {
			mustTWIR(t, `Function[{Typed[v, "Tensor"["Real64", 1]]}, Map[Function[{x}, x*x], v]]`)
			types.NewVar("noise")
		}
		if _, again := compileToTWIR(t, tc.src); again == nil || again.Error() != first.Error() {
			t.Fatalf("%s: the message changed with the process's history:\n%v\n%v", tc.src, first, again)
		}
	}
}
