package core

import (
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

func newCompiler() *Compiler {
	k := kernel.New()
	k.Out = io.Discard
	return NewCompiler(k)
}

// compile compiles source text through the full pipeline.
func compile(t *testing.T, c *Compiler, src string) *CompiledCodeFunction {
	t.Helper()
	ccf, err := c.FunctionCompile(parser.MustParse(src))
	if err != nil {
		t.Fatalf("FunctionCompile(%s): %v", src, err)
	}
	return ccf
}

// apply boxes expression arguments through the wrapper.
func apply(t *testing.T, ccf *CompiledCodeFunction, args ...string) string {
	t.Helper()
	ex := make([]expr.Expr, len(args))
	for i, a := range args {
		ex[i] = parser.MustParse(a)
	}
	out, err := ccf.Apply(ex)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	return expr.InputForm(out)
}

func TestCompileScalar(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[x, "Real64"]}, x*x + 1]`)
	if got := apply(t, ccf, "3.0"); got != "10." {
		t.Fatalf("got %s", got)
	}
	// Integer arguments unbox into Real64 parameters.
	if got := apply(t, ccf, "3"); got != "10." {
		t.Fatalf("int arg: %s", got)
	}
}

func TestCompileAddOneFromArtifact(t *testing.T) {
	// §A.6's addOne example.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[arg, "MachineInteger"]}, arg + 1]`)
	if got := apply(t, ccf, "41"); got != "42" {
		t.Fatalf("addOne = %s", got)
	}
	if ccf.RetType != types.TInt64 {
		t.Fatalf("ret type = %v", ccf.RetType)
	}
}

func TestCompileLoops(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n, s = s + i; i++];
			s]]`)
	if got := apply(t, ccf, "100"); got != "5050" {
		t.Fatalf("sum = %s", got)
	}
	ccf2 := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0}, Do[s += j^2, {j, 1, n}]; s]]`)
	if got := apply(t, ccf2, "5"); got != "55" {
		t.Fatalf("do = %s", got)
	}
	ccf3 := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0}, For[i = 1, i <= n, i++, s += i]; s]]`)
	if got := apply(t, ccf3, "4"); got != "10" {
		t.Fatalf("for = %s", got)
	}
}

func TestCompileRecursionCfib(t *testing.T) {
	// The paper's cfib (§4.1), with the self-reference resolved by name.
	c := newCompiler()
	ccf, err := c.CompileNamed("cfib", parser.MustParse(
		`Function[{Typed[n, "MachineInteger"]},
			If[n < 1, 1, cfib[n - 1] + cfib[n - 2]]]`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ccf.Apply([]expr.Expr{expr.FromInt64(10)})
	if err != nil {
		t.Fatal(err)
	}
	if expr.InputForm(out) != "144" {
		t.Fatalf("cfib[10] = %s", expr.InputForm(out))
	}
}

func TestSoftFailureFibOverflow(t *testing.T) {
	// §2.2: cfib[200] overflows machine integers; the wrapper prints the
	// warning and reverts to the interpreter, which answers with bignums.
	k := kernel.New()
	var log strings.Builder
	k.Out = &log
	c := NewCompiler(k)
	ccf, err := c.CompileNamed("cfib", parser.MustParse(
		`Function[{Typed[n, "MachineInteger"]},
			If[n < 1, 1, cfib[n - 1] + cfib[n - 2]]]`))
	if err != nil {
		t.Fatal(err)
	}
	// Define cfib in the kernel for the fallback's recursive evaluation.
	if _, err := k.Run(parser.MustParse("cfib = Function[{n}, If[n < 1, 1, cfib[n - 1] + cfib[n - 2]]]")); err != nil {
		t.Fatal(err)
	}
	// n=100 stays in fib-by-doubling range... use an explicitly
	// overflowing computation instead to keep this fast.
	ccf2, err := c.FunctionCompile(parser.MustParse(
		`Function[{Typed[n, "MachineInteger"]}, n*n*n*n*n]`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ccf2.Apply([]expr.Expr{expr.FromInt64(10_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	i, ok := out.(*expr.Integer)
	if !ok || i.IsMachine() {
		t.Fatalf("fallback must produce a bignum, got %s", expr.InputForm(out))
	}
	if !strings.Contains(log.String(), "reverting to uncompiled evaluation") {
		t.Fatalf("missing paper warning, log=%q", log.String())
	}
	_ = ccf
}

func TestCompileTensors(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Module[{s = 0., i = 1, n = Length[v]},
			While[i <= n, s = s + v[[i]]; i++];
			s]]`)
	if got := apply(t, ccf, "{1.5, 2.5, 3.0}"); got != "7." {
		t.Fatalf("sum = %s", got)
	}
	// Negative indexing through checked Part.
	ccf2 := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]}, v[[-1]]]`)
	if got := apply(t, ccf2, "{1., 2., 9.}"); got != "9." {
		t.Fatalf("v[[-1]] = %s", got)
	}
}

func TestMutabilityCopySemantics(t *testing.T) {
	// F5: the caller's list is never mutated through a compiled function,
	// and internal aliases see value semantics.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Module[{w = v},
			w[[1]] = 99.;
			w[[1]] + v[[1]]]]`)
	if got := apply(t, ccf, "{1., 2.}"); got != "100." {
		t.Fatalf("copy semantics: %s", got)
	}
	// Caller side unaffected: run through the kernel for a full check.
	k := c.Kernel
	Install(k) // fresh compiler, same kernel; we only need the applier
	k.Run(parser.MustParse("orig = {1., 2.}"))
	out, _ := k.Run(parser.MustParse("orig"))
	if expr.InputForm(out) != "{1., 2.}" {
		t.Fatalf("caller mutated: %s", expr.InputForm(out))
	}
}

func TestCompileStrings(t *testing.T) {
	// L1 solved: strings compile (the bytecode baseline rejects them).
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[s, "String"]}, StringJoin[s, "!"]]`)
	if got := apply(t, ccf, `"hi"`); got != `"hi!"` {
		t.Fatalf("got %s", got)
	}
	ccf2 := compile(t, c, `Function[{Typed[s, "String"]},
		Module[{h = 0, i = 1, n = Native`+"`"+`StringByteLength[s]},
			While[i <= n, h = h + Native`+"`"+`StringByte[s, i]; i++];
			h]]`)
	if got := apply(t, ccf2, `"AB"`); got != "131" { // 65+66
		t.Fatalf("byte sum = %s", got)
	}
}

func TestCompileFunctionValues(t *testing.T) {
	// F6: function-typed values (the QSort enabler).
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Fold[Function[{a, b}, a + b], 0., v]]`)
	if got := apply(t, ccf, "{1., 2., 3.5}"); got != "6.5" {
		t.Fatalf("fold = %s", got)
	}
	// Map with a capturing closure.
	ccf2 := compile(t, c, `Function[{Typed[k, "Real64"], Typed[v, "Tensor"["Real64", 1]]},
		Map[Function[{x}, x*k], v]]`)
	if got := apply(t, ccf2, "2.", "{1., 2., 3.}"); got != "{2., 4., 6.}" {
		t.Fatalf("map = %s", got)
	}
}

func TestCompileSymbolic(t *testing.T) {
	// §4.5: cf = FunctionCompile[Function[{Typed[arg1, "Expression"],
	// Typed[arg2, "Expression"]}, arg1 + arg2]]; cf[1,2] = 3,
	// cf[x, y] = x + y, cf[x, Cos[y] + Sin[z]] = x + Cos[y] + Sin[z].
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[arg1, "Expression"], Typed[arg2, "Expression"]}, arg1 + arg2]`)
	if got := apply(t, ccf, "1", "2"); got != "3" {
		t.Fatalf("cf[1,2] = %s", got)
	}
	if got := apply(t, ccf, "x", "y"); got != "x + y" {
		t.Fatalf("cf[x,y] = %s", got)
	}
	got := apply(t, ccf, "x", "Cos[y] + Sin[z]")
	if got != "x + Cos[y] + Sin[z]" && got != "Cos[y] + Sin[z] + x" {
		t.Fatalf("cf[x, Cos[y]+Sin[z]] = %s", got)
	}
}

func TestKernelFunctionEscape(t *testing.T) {
	// F9 gradual compilation: escape to the interpreter mid-function.
	c := newCompiler()
	if _, err := c.Kernel.Run(parser.MustParse("userTriple[x_] := 3*x")); err != nil {
		t.Fatal(err)
	}
	ccf := compile(t, c, `Function[{Typed[x, "MachineInteger"]},
		KernelFunction[userTriple][x]]`)
	out, err := ccf.Apply([]expr.Expr{expr.FromInt64(5)})
	if err != nil {
		t.Fatal(err)
	}
	if expr.InputForm(out) != "15" {
		t.Fatalf("escape = %s", expr.InputForm(out))
	}
}

func TestAbortCompiledLoop(t *testing.T) {
	// F3: abort an infinite compiled loop from another goroutine.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{i = 0},
			While[i >= 0, i = Mod[i + 1, 1000]];
			i]]`)
	go func() {
		time.Sleep(20 * time.Millisecond)
		c.Kernel.Abort()
	}()
	out, err := ccf.Apply([]expr.Expr{expr.FromInt64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if out != expr.SymAborted {
		t.Fatalf("abort = %s", expr.InputForm(out))
	}
	c.Kernel.ClearAbort()
}

func TestFunctionCompileInKernel(t *testing.T) {
	// F1: the full notebook experience — FunctionCompile inside the
	// language, the result callable like any function.
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	out, err := k.Run(parser.MustParse(
		`cf = FunctionCompile[Function[{Typed[x, "Real64"]}, Sin[x] + x^2]]; cf[2.0]`))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := out.(*expr.Real)
	if !ok {
		t.Fatalf("cf[2.0] = %s", expr.InputForm(out))
	}
	want := 4.909297426825682
	if r.V < want-1e-12 || r.V > want+1e-12 {
		t.Fatalf("cf[2.0] = %v", r.V)
	}
}

func TestUserDeclaredPolymorphicMin(t *testing.T) {
	// The paper's §4.4 example: Min declared polymorphically with an
	// Ordered qualifier and a Wolfram-source implementation, then the
	// container Min built on Fold.
	c := newCompiler()
	c.TypeEnv.DeclareFunction(&types.FuncDef{
		Name: "MyMin",
		Type: c.TypeEnv.MustParseSpec(parser.MustParse(
			`TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]`)),
		Impl:   parser.MustParse("Function[{e1, e2}, If[e1 < e2, e1, e2]]"),
		Inline: true,
	})
	ccf := compile(t, c, `Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, MyMin[x, y]]`)
	if got := apply(t, ccf, "3.5", "2.0"); got != "2." {
		t.Fatalf("MyMin = %s", got)
	}
	// Same declaration instantiates at machine integers.
	ccf2 := compile(t, c, `Function[{Typed[x, "MachineInteger"], Typed[y, "MachineInteger"]}, MyMin[x, y]]`)
	if got := apply(t, ccf2, "9", "4"); got != "4" {
		t.Fatalf("MyMin int = %s", got)
	}
	// And at strings (Ordered includes String).
	ccf3 := compile(t, c, `Function[{Typed[x, "String"], Typed[y, "String"]}, MyMin[x, y]]`)
	if got := apply(t, ccf3, `"pear"`, `"apple"`); got != `"apple"` {
		t.Fatalf("MyMin string = %s", got)
	}
	// Container Min via Fold over the scalar definition (paper §4.4).
	c.TypeEnv.DeclareFunction(&types.FuncDef{
		Name: "MyMinList",
		Type: c.TypeEnv.MustParseSpec(parser.MustParse(
			`TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"Tensor"["a", 1]} -> "a"]`)),
		Impl: parser.MustParse("Function[{arry}, Fold[MyMin, Native`PartUnsafe[arry, 1], arry]]"),
	})
	ccf4 := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]}, MyMinList[v]]`)
	if got := apply(t, ccf4, "{3., 1., 2.}"); got != "1." {
		t.Fatalf("MyMinList = %s", got)
	}
}

func TestComplexMandelbrotStep(t *testing.T) {
	// The paper's Mandelbrot inner function (§A.7).
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[pixel0, "ComplexReal64"]},
		Module[{iters = 1, maxIters = 100, pixel = pixel0},
			While[iters < maxIters && Abs[pixel] < 2.,
				pixel = pixel^2 + pixel0;
				iters++];
			iters]]`)
	// 0 is in the set: iteration runs to maxIters.
	if got := apply(t, ccf, "Complex[0., 0.]"); got != "100" {
		t.Fatalf("mandelbrot[0] = %s", got)
	}
	// 2+2i escapes immediately.
	if got := apply(t, ccf, "Complex[2., 2.]"); got != "1" {
		t.Fatalf("mandelbrot[2+2i] = %s", got)
	}
}

func TestRandomWalkCompiled(t *testing.T) {
	// Figure 1's random walk end to end through the new compiler.
	c := newCompiler()
	c.Kernel.Seed(5)
	ccf := compile(t, c, `Function[{Typed[len, "MachineInteger"]},
		NestList[
			Module[{arg = RandomReal[{0., 2.*Pi}]}, {-Cos[arg], Sin[arg]} + #] &,
			{0., 0.},
			len]]`)
	out, err := ccf.Apply([]expr.Expr{expr.FromInt64(50)})
	if err != nil {
		t.Fatal(err)
	}
	l, ok := expr.IsNormal(out, expr.SymList)
	if !ok || l.Len() != 51 {
		t.Fatalf("walk length = %s", expr.InputForm(out))
	}
	// Unit step length between consecutive points.
	p0, _ := expr.IsNormal(l.Arg(7), expr.SymList)
	p1, _ := expr.IsNormal(l.Arg(8), expr.SymList)
	dx := p1.Arg(1).(*expr.Real).V - p0.Arg(1).(*expr.Real).V
	dy := p1.Arg(2).(*expr.Real).V - p0.Arg(2).(*expr.Real).V
	if dd := dx*dx + dy*dy; dd < 0.999 || dd > 1.001 {
		t.Fatalf("step length^2 = %v", dd)
	}
}

func TestIRDumps(t *testing.T) {
	// §A.6: AST, WIR, and TWIR stages are inspectable.
	c := newCompiler()
	fn := parser.MustParse(`Function[{Typed[arg, "MachineInteger"]}, arg + 1]`)
	ast, err := c.ExpandAST(fn)
	if err != nil {
		t.Fatal(err)
	}
	if expr.FullForm(ast) != `Function[List[Typed[arg, "MachineInteger"]], Plus[arg, 1]]` {
		t.Fatalf("AST = %s", expr.FullForm(ast))
	}
	wirMod, err := c.BuildWIR(fn)
	if err != nil {
		t.Fatal(err)
	}
	if wirMod.Typed {
		t.Fatal("WIR stage must be untyped")
	}
	twir, err := c.BuildTWIR("", fn)
	if err != nil {
		t.Fatal(err)
	}
	s := twir.String()
	if !strings.Contains(s, "Integer64") || !strings.Contains(s, "Call Plus") {
		t.Fatalf("TWIR dump:\n%s", s)
	}
}

func TestConstantArrayPrimeSeedPattern(t *testing.T) {
	// §6 PrimeQ: a constant table embedded in compiled code.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[i, "MachineInteger"]},
		Part[{2, 3, 5, 7, 11, 13}, i]]`)
	if got := apply(t, ccf, "4"); got != "7" {
		t.Fatalf("seed[4] = %s", got)
	}
	if got := apply(t, ccf, "-1"); got != "13" {
		t.Fatalf("seed[-1] = %s", got)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	c := newCompiler()
	// Unknown function: a compile error, not a runtime surprise.
	_, err := c.FunctionCompile(parser.MustParse(
		`Function[{Typed[x, "Real64"]}, TotallyUnknownFn[x]]`))
	if err == nil {
		t.Fatal("unknown function must fail compilation")
	}
	// Type mismatch in branches.
	_, err = c.FunctionCompile(parser.MustParse(
		`Function[{Typed[x, "MachineInteger"]}, If[x > 0, "yes", 1]]`))
	if err == nil {
		t.Fatal("mismatched branches must fail compilation")
	}
}

func TestPartBoundsFallback(t *testing.T) {
	// An out-of-range Part raises the runtime exception and falls back to
	// the interpreter, which reports through its own message path.
	k := kernel.New()
	var log strings.Builder
	k.Out = &log
	c := NewCompiler(k)
	ccf, err := c.FunctionCompile(parser.MustParse(
		`Function[{Typed[v, "Tensor"["Real64", 1]], Typed[i, "MachineInteger"]}, v[[i]]]`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ccf.Apply([]expr.Expr{parser.MustParse("{1., 2.}"), expr.FromInt64(1)})
	if err != nil || expr.InputForm(out) != "1." {
		t.Fatalf("in range: %s %v", expr.InputForm(out), err)
	}
	// Out of range: warning + fallback (interpreter then errors too, which
	// surfaces as an evaluation error — the session survives).
	_, _ = ccf.Apply([]expr.Expr{parser.MustParse("{1., 2.}"), expr.FromInt64(5)})
	if !strings.Contains(log.String(), "reverting to uncompiled evaluation") {
		t.Fatalf("missing fallback warning: %q", log.String())
	}
}

// Macro expansion bounds its rewrites, not the nodes it visits: a literal
// list of 12 000 elements fires no macro and must compile (it failed with
// M001 when every visit counted against the bound).
func TestCompileLargeLiteralList(t *testing.T) {
	elems := make([]string, 12000)
	for i := range elems {
		elems[i] = strconv.Itoa(i)
	}
	ccf := compile(t, newCompiler(),
		`Function[{Typed[k, "MachineInteger"]}, k + Length[{`+strings.Join(elems, ", ")+`}]]`)
	if got := apply(t, ccf, "5"); got != "12005" {
		t.Fatalf("got %s, want 12005", got)
	}
}

// TestComplexPowerAtIntegerExtremes: Power of a complex to the exponents
// MinInt64 and MaxInt64, with run-time arguments and with the arguments
// written in as literals (which the constant folder evaluates inside the
// compiler), gives one result and never falls back. The interpreter is no
// reference here: it raises a machine complex to a huge exponent as a real
// power.
func TestComplexPowerAtIntegerExtremes(t *testing.T) {
	c := newCompiler()
	var msgs strings.Builder
	c.Kernel.Out = &msgs
	ccf := compile(t, c, `Function[{Typed[z, "ComplexReal64"], Typed[n, "Integer64"]}, Power[z, n]]`)
	for _, n := range []string{"-9223372036854775808", "9223372036854775807"} {
		for _, z := range []string{"Complex[0., 1.]", "Complex[-1., 0.]", "Complex[0.5, 0.5]"} {
			lit := compile(t, c, "Function[{}, Power["+z+", "+n+"]]")
			got, want := apply(t, lit), apply(t, ccf, z, n)
			if got != want || msgs.Len() != 0 {
				t.Errorf("Power[%s, %s] = %s with literal arguments, %s with run-time arguments %s", z, n, got, want, msgs.String())
			}
		}
	}
	// (1 - i)^MinInt64 is 0: the positive power overflows, so its
	// reciprocal underflows, where the squares' NaN used to come through.
	z, n := "Complex[1., -1.]", "-9223372036854775808"
	lit := compile(t, c, "Function[{}, Power["+z+", "+n+"]]")
	if got, run := apply(t, lit), apply(t, ccf, z, n); got != "0." || run != "0." || msgs.Len() != 0 {
		t.Errorf("Power[%s, %s] = %s with literal arguments, %s with run-time arguments, want 0. %s", z, n, got, run, msgs.String())
	}
}
