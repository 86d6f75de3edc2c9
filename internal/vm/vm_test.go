package vm

import (
	"io"
	"strings"
	"testing"
	"time"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

func newKernel() *kernel.Kernel {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	return k
}

// compileSrc compiles Compile[...] source text.
func compileSrc(t *testing.T, k *kernel.Kernel, src string) *CompiledFunction {
	t.Helper()
	e := parser.MustParse(src)
	cf, err := CompileExpr(k, e)
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	return cf
}

func callScalar(t *testing.T, k *kernel.Kernel, cf *CompiledFunction, args ...Value) Value {
	t.Helper()
	out, err := cf.Call(k, args...)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	return out
}

func TestCompileScalarArithmetic(t *testing.T) {
	k := newKernel()
	cf := compileSrc(t, k, "Compile[{{x, _Real}}, x^2 + 2*x + 1]")
	out := callScalar(t, k, cf, RealValue(3))
	if out.Kind != KReal || out.R != 16 {
		t.Fatalf("got %v", out)
	}
	// Integer arguments are coerced to Real parameters.
	out = callScalar(t, k, cf, IntValue(3))
	if out.R != 16 {
		t.Fatalf("int arg coercion: %v", out)
	}
}

func TestCompileIntegerArithmetic(t *testing.T) {
	k := newKernel()
	cf := compileSrc(t, k, "Compile[{{n, _Integer}}, Mod[n*n + 7, 10]]")
	out := callScalar(t, k, cf, IntValue(6))
	if out.Kind != KInt || out.I != 3 {
		t.Fatalf("got %v", out)
	}
}

func TestCompileControlFlow(t *testing.T) {
	k := newKernel()
	// Loop summing 1..n.
	cf := compileSrc(t, k, `Compile[{{n, _Integer}},
		Module[{s = 0, i = 1},
			While[i <= n, s = s + i; i = i + 1];
			s]]`)
	out := callScalar(t, k, cf, IntValue(100))
	if out.I != 5050 {
		t.Fatalf("sum = %v", out)
	}
	// If with both branches.
	cf2 := compileSrc(t, k, "Compile[{{x, _Real}}, If[x > 0, x, -x]]")
	if got := callScalar(t, k, cf2, RealValue(-2.5)); got.R != 2.5 {
		t.Fatalf("abs = %v", got)
	}
	// Do with iterator.
	cf3 := compileSrc(t, k, `Compile[{{n, _Integer}},
		Module[{s = 0}, Do[s += j, {j, 1, n}]; s]]`)
	if got := callScalar(t, k, cf3, IntValue(10)); got.I != 55 {
		t.Fatalf("do sum = %v", got)
	}
	// For loop.
	cf4 := compileSrc(t, k, `Compile[{{n, _Integer}},
		Module[{s = 0}, For[i = 0, i < n, i++, s += i]; s]]`)
	if got := callScalar(t, k, cf4, IntValue(5)); got.I != 10 {
		t.Fatalf("for sum = %v", got)
	}
}

func TestCompileMathFunctions(t *testing.T) {
	k := newKernel()
	cf := compileSrc(t, k, "Compile[{{x, _Real}}, Sin[x]^2 + Cos[x]^2]")
	out := callScalar(t, k, cf, RealValue(0.7))
	if out.R < 0.9999999 || out.R > 1.0000001 {
		t.Fatalf("sin^2+cos^2 = %v", out)
	}
	cf2 := compileSrc(t, k, "Compile[{{x, _Real}}, Floor[x] + Ceiling[x]]")
	if got := callScalar(t, k, cf2, RealValue(2.5)); got.I != 5 {
		t.Fatalf("floor+ceiling = %v", got)
	}
	cf3 := compileSrc(t, k, "Compile[{{a, _Integer}, {b, _Integer}}, Min[a, b] + Max[a, b]]")
	if got := callScalar(t, k, cf3, IntValue(3), IntValue(9)); got.I != 12 {
		t.Fatalf("min+max = %v", got)
	}
}

func TestCompileTensors(t *testing.T) {
	k := newKernel()
	// Sum the elements of a vector by explicit loop.
	cf := compileSrc(t, k, `Compile[{{v, _Real, 1}},
		Module[{s = 0., i = 1},
			While[i <= Length[v], s = s + v[[i]]; i++];
			s]]`)
	vec := NewRealTensor(4)
	copy(vec.R, []float64{1, 2, 3, 4})
	out := callScalar(t, k, cf, TensorValue(vec))
	if out.R != 10 {
		t.Fatalf("vector sum = %v", out)
	}
	// Negative indexing.
	cf2 := compileSrc(t, k, "Compile[{{v, _Real, 1}}, v[[-1]]]")
	if got := callScalar(t, k, cf2, TensorValue(vec)); got.R != 4 {
		t.Fatalf("v[[-1]] = %v", got)
	}
	// Table building.
	cf3 := compileSrc(t, k, "Compile[{{n, _Integer}}, Table[i*i, {i, 1, n}]]")
	got := callScalar(t, k, cf3, IntValue(5))
	if got.Kind != KTensor || got.T.I[4] != 25 {
		t.Fatalf("table = %v", got)
	}
	// Part assignment mutates only the compiled copy.
	cf4 := compileSrc(t, k, `Compile[{{v, _Real, 1}},
		Module[{w = v}, w[[1]] = 99.; w[[1]] + v[[1]]]]`)
	if got := callScalar(t, k, cf4, TensorValue(vec)); got.R != 100 {
		t.Fatalf("copy semantics: %v", got)
	}
	if vec.R[0] != 1 {
		t.Fatal("caller's tensor mutated through compiled function")
	}
}

func TestCompileOverflowFallbackError(t *testing.T) {
	k := newKernel()
	cf := compileSrc(t, k, "Compile[{{n, _Integer}}, n*n]")
	_, err := cf.Call(k, IntValue(1<<62))
	verr, ok := err.(*Error)
	if !ok || verr.Kind != ErrOverflow {
		t.Fatalf("expected overflow error, got %v", err)
	}
}

func TestCompiledFunctionIntegration(t *testing.T) {
	// Full pipeline: Compile[...] inside the kernel, then call it like a
	// regular function (F1).
	k := newKernel()
	out, err := k.Run(parser.MustParse("cf = Compile[{{x, _Real}}, Sin[x] + x^2]; cf[2.0]"))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := out.(*expr.Real)
	if !ok {
		t.Fatalf("result = %s", expr.InputForm(out))
	}
	want := 4.909297426825682
	if r.V < want-1e-12 || r.V > want+1e-12 {
		t.Fatalf("cf[2.0] = %v, want %v", r.V, want)
	}
}

func TestSoftFallbackOnOverflow(t *testing.T) {
	// Compiled fib overflows int64 for n=200; the wrapper must print a
	// warning and re-evaluate with the interpreter's bignums (paper §2.2).
	k := kernel.New()
	var log strings.Builder
	k.Out = &log
	Install(k)
	_, err := k.Run(parser.MustParse("cpow = Compile[{{n, _Integer}}, n*n*n*n*n*n*n*n*n*n]"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := k.Run(parser.MustParse("cpow[12345]"))
	if err != nil {
		t.Fatal(err)
	}
	i, ok := out.(*expr.Integer)
	if !ok {
		t.Fatalf("result = %s", expr.InputForm(out))
	}
	if i.IsMachine() {
		t.Fatalf("12345^10 must be a bignum, got %s", i)
	}
	if !strings.Contains(log.String(), "reverting to uncompiled evaluation") {
		t.Fatalf("missing fallback warning; log = %q", log.String())
	}
}

// The numeric edges where the compiled backends throw: Floor of a real past
// the machine range, a shift that loses bits and Quotient[MinInt64, -1] take
// the same fallback and answer what the interpreter answers.
func TestSoftFallbackOnNumericEdges(t *testing.T) {
	k := kernel.New()
	var log strings.Builder
	k.Out = &log
	Install(k)
	for _, c := range []struct{ def, call, want string }{
		{"Compile[{{x, _Real}}, Floor[x]]", "cf[2.^63]", "9223372036854775808"},
		{"Compile[{{a, _Integer}, {n, _Integer}}, BitShiftLeft[a, n]]", "cf[1, 64]", "18446744073709551616"},
		{"Compile[{{a, _Integer}, {b, _Integer}}, Quotient[a, b]]", "cf[-9223372036854775807 - 1, -1]", "9223372036854775808"},
	} {
		log.Reset()
		if _, err := k.Run(parser.MustParse("cf = " + c.def)); err != nil {
			t.Fatal(err)
		}
		out, err := k.Run(parser.MustParse(c.call))
		if err != nil {
			t.Fatal(err)
		}
		if got := expr.InputForm(out); got != c.want {
			t.Errorf("%s; %s = %s, want %s", c.def, c.call, got, c.want)
		}
		if !strings.Contains(log.String(), "reverting to uncompiled evaluation") {
			t.Errorf("%s; %s: missing fallback warning; log = %q", c.def, c.call, log.String())
		}
	}
}

func TestInterpreterEscape(t *testing.T) {
	// An unsupported call compiles to an interpreter escape, not a failure
	// (paper §2.2).
	k := newKernel()
	k.Run(parser.MustParse("userFunc[x_] := x*3"))
	cf := compileSrc(t, k, "Compile[{{x, _Real}}, userFunc[x] + 1.0]")
	found := false
	for _, in := range cf.Code {
		if in.Op == OpCallInterp {
			found = true
		}
	}
	if !found {
		t.Fatal("expected an interpreter escape instruction")
	}
	out := callScalar(t, k, cf, RealValue(2))
	if out.R != 7 {
		t.Fatalf("escape result = %v", out)
	}
}

func TestStringsRejected(t *testing.T) {
	// Limitation L1: strings are not VM values. A string stored into a VM
	// variable is a hard compile failure...
	k := newKernel()
	e := parser.MustParse(`Compile[{{x, _Real}}, Module[{s = "abc"}, x]]`)
	if _, err := CompileExpr(k, e); err == nil {
		t.Fatal("string-valued variable must not bytecode-compile")
	}
	// ...while a string-consuming call in expression position merely
	// escapes to the interpreter (its numeric result is representable).
	cf := compileSrc(t, k, `Compile[{{x, _Real}}, StringLength["abc"] + x]`)
	escapes := 0
	for _, in := range cf.Code {
		if in.Op == OpCallInterp {
			escapes++
		}
	}
	if escapes == 0 {
		t.Fatal("string call should compile to an interpreter escape")
	}
	if got := callScalar(t, k, cf, RealValue(1)); got.R != 4 {
		t.Fatalf("escaped StringLength result = %v", got)
	}
}

func TestAbortCompiledLoop(t *testing.T) {
	k := newKernel()
	cf := compileSrc(t, k, `Compile[{{n, _Integer}},
		Module[{i = 0}, While[i >= 0, i = Mod[i + 1, 1000]]; i]]`)
	go func() {
		time.Sleep(20 * time.Millisecond)
		k.Abort()
	}()
	_, err := cf.Call(k, IntValue(1))
	verr, ok := err.(*Error)
	if !ok || verr.Kind != ErrAborted {
		t.Fatalf("expected abort, got %v", err)
	}
	k.ClearAbort()
}

func TestDisassemble(t *testing.T) {
	k := newKernel()
	cf := compileSrc(t, k, "Compile[{{x, _Real}}, Sin[x] + x]")
	dis := cf.Disassemble()
	for _, want := range []string{"WVMFunction", "Load", "Math1", "AddR", "Ret"} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestValueConversionRoundTrip(t *testing.T) {
	k := newKernel()
	_ = k
	exprs := []string{"3", "2.5", "True", "False", "{1, 2, 3}", "{1.5, 2.5}", "{{1, 2}, {3, 4}}"}
	for _, src := range exprs {
		e := parser.MustParse(src)
		v, err := FromExpr(e)
		if err != nil {
			t.Fatalf("FromExpr(%s): %v", src, err)
		}
		back := ToExpr(v)
		if !expr.SameQ(e, back) {
			t.Fatalf("round trip %s -> %s", src, expr.InputForm(back))
		}
	}
	// Big integers are outside the machine domain.
	if _, err := FromExpr(expr.NewS("Hold")); err == nil {
		t.Fatal("Hold[] should not convert")
	}
}

func TestTensorPartOps(t *testing.T) {
	m := NewRealTensor(2, 3)
	copy(m.R, []float64{1, 2, 3, 4, 5, 6})
	v, err := m.Part(2, 3)
	if err != nil || v.R != 6 {
		t.Fatalf("m[[2,3]] = %v, %v", v, err)
	}
	row, err := m.Part(1)
	if err != nil || row.Kind != KTensor || row.T.R[1] != 2 {
		t.Fatalf("m[[1]] = %v, %v", row, err)
	}
	if _, err := m.Part(3, 1); err == nil {
		t.Fatal("out of range must fail")
	}
	if err := m.SetPart(RealValue(9), 1, -1); err != nil {
		t.Fatal(err)
	}
	if m.R[2] != 9 {
		t.Fatalf("negative index set: %v", m.R)
	}
}

func TestDotThroughVM(t *testing.T) {
	k := newKernel()
	cf := compileSrc(t, k, "Compile[{{a, _Real, 2}, {b, _Real, 2}}, Dot[a, b]]")
	a := NewRealTensor(2, 2)
	copy(a.R, []float64{1, 2, 3, 4})
	b := NewRealTensor(2, 2)
	copy(b.R, []float64{5, 6, 7, 8})
	out := callScalar(t, k, cf, TensorValue(a), TensorValue(b))
	if out.Kind != KTensor {
		t.Fatalf("dot kind = %v", out.Kind)
	}
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if out.T.R[i] != w {
			t.Fatalf("dot[%d] = %v, want %v", i, out.T.R[i], w)
		}
	}
}

func TestVersionMismatchRecompiles(t *testing.T) {
	// A CompiledFunction whose id is not in this session's registry (e.g.
	// deserialised from elsewhere) falls back to its source.
	k := newKernel()
	out, err := k.Run(parser.MustParse(
		"CompiledFunction[{11, 12, 999999}, Function[{x}, x + 1]][41]"))
	if err != nil {
		t.Fatal(err)
	}
	if expr.InputForm(out) != "42" {
		t.Fatalf("recompile fallback = %s", expr.InputForm(out))
	}
}

func TestASTLevelCSE(t *testing.T) {
	// §2.2: the bytecode compiler performs common subexpression elimination
	// on the AST. Sin[x]*Sin[x] + Sin[x] compiles Sin once.
	k := newKernel()
	cf := compileSrc(t, k, "Compile[{{x, _Real}}, Sin[x]*Sin[x] + Sin[x]]")
	sins := 0
	for _, in := range cf.Code {
		if in.Op == OpMath1 && in.A == MfSin {
			sins++
		}
	}
	if sins != 1 {
		t.Fatalf("Sin compiled %d times, want 1 (AST CSE):\n%s", sins, cf.Disassemble())
	}
	out := callScalar(t, k, cf, RealValue(0.5))
	want := mathSin(0.5)*mathSin(0.5) + mathSin(0.5)
	if out.R < want-1e-12 || out.R > want+1e-12 {
		t.Fatalf("CSE changed the result: %v vs %v", out.R, want)
	}
	// Subtrees over assigned variables must NOT be hoisted.
	cf2 := compileSrc(t, k, `Compile[{{n, _Integer}},
		Module[{s = 0, i = 1},
			While[i <= n, s = s + i*i + i*i; i = i + 1];
			s]]`)
	if got := callScalar(t, k, cf2, IntValue(3)); got.I != 28 {
		t.Fatalf("loop with assigned vars = %v, want 28", got)
	}
}

func mathSin(x float64) float64 {
	out, _ := math1(MfSin, x)
	return out
}
