package core

import (
	"fmt"
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
	"wolfc/internal/types"
)

// Additional coverage of compiled-language features beyond the basics in
// core_test.go: control-flow escapes, higher-order primitives, small
// machine widths, and option plumbing.

func TestCompiledBreakContinue(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 0},
			While[True,
				i = i + 1;
				If[i > n, Break[]];
				If[Mod[i, 2] == 0, Continue[]];
				s = s + i];
			s]]`)
	// Sum of odd numbers <= 10 is 25.
	if got := apply(t, ccf, "10"); got != "25" {
		t.Fatalf("break/continue sum = %s", got)
	}
}

func TestCompiledEarlyReturn(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[x, "MachineInteger"]},
		If[x < 0, Return[-1]];
		If[x == 0, Return[0]];
		1]`)
	for in, want := range map[string]string{"-5": "-1", "0": "0", "7": "1"} {
		if got := apply(t, ccf, in); got != want {
			t.Fatalf("sign(%s) = %s, want %s", in, got, want)
		}
	}
}

func TestCompiledSelect(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Select[v, Function[{x}, x > 2.]]]`)
	if got := apply(t, ccf, "{1., 3., 2., 5.}"); got != "{3., 5.}" {
		t.Fatalf("select = %s", got)
	}
	// Nothing selected: empty result.
	if got := apply(t, ccf, "{1., 2.}"); got != "{}" {
		t.Fatalf("empty select = %s", got)
	}
}

func TestCompiledSum(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Sum[i*i, {i, 1, n}]]`)
	if got := apply(t, ccf, "10"); got != "385" {
		t.Fatalf("sum of squares = %s", got)
	}
	// Empty range sums to zero.
	if got := apply(t, ccf, "0"); got != "0" {
		t.Fatalf("empty sum = %s", got)
	}
	// Real-valued body adapts the accumulator.
	ccf2 := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Sum[1.5, {i, 1, n}]]`)
	if got := apply(t, ccf2, "4"); got != "6." {
		t.Fatalf("real sum = %s", got)
	}
}

func TestCompiledNestWhile(t *testing.T) {
	c := newCompiler()
	// Collatz-ish: halve until odd.
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		NestWhile[Function[{x}, Quotient[x, 2]], n, Function[{x}, Mod[x, 2] == 0]]]`)
	if got := apply(t, ccf, "48"); got != "3" {
		t.Fatalf("nestwhile = %s", got)
	}
}

func TestCompiledFoldListAndNest(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		FoldList[Function[{a, b}, a + b], 0., v]]`)
	if got := apply(t, ccf, "{1., 2., 3.}"); got != "{0., 1., 3., 6.}" {
		t.Fatalf("foldlist = %s", got)
	}
	ccf2 := compile(t, c, `Function[{Typed[x, "Real64"]},
		Nest[Function[{y}, y*y], x, 3]]`)
	if got := apply(t, ccf2, "2."); got != "256." {
		t.Fatalf("nest = %s", got)
	}
}

func TestCompiledSmallIntegerWidths(t *testing.T) {
	// The paper's L1 complaint about the bytecode compiler: no small
	// datatypes (int8 etc.). The new compiler supports them via casts;
	// values are stored widened with masking on conversion.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[x, "MachineInteger"]},
		Native`+"`"+`CastInteger8[Native`+"`"+`CastInteger32[x]]]`)
	// 300 mod 2^8 with sign: 300 = 0x12C -> int8 0x2C = 44.
	out, err := ccf.Apply([]expr.Expr{expr.FromInt64(300)})
	if err != nil {
		t.Fatal(err)
	}
	if expr.InputForm(out) != "44" {
		t.Fatalf("int8 cast = %s", expr.InputForm(out))
	}
	if ccf.RetType != types.AtomicOf("Integer8") {
		t.Fatalf("ret type = %v", ccf.RetType)
	}
}

func TestCompiledBitOps(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]},
		BitOr[BitAnd[a, b], BitShiftLeft[BitXor[a, b], 1]]]`)
	// a=12 b=10: and=8, xor=6, shl=12, or=12.
	if got := apply(t, ccf, "12", "10"); got != "12" {
		t.Fatalf("bit ops = %s", got)
	}
}

func TestCompiledStringPipeline(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[s, "String"]},
		FromCharacterCode[Map[Function[{ch}, ch + 1], ToCharacterCode[s]]]]`)
	if got := apply(t, ccf, `"HAL"`); got != `"IBM"` {
		t.Fatalf("caesar = %s", got)
	}
}

func TestCompiledMatrixStencil(t *testing.T) {
	// Rank-2 reads and writes through the checked Part (Blur's core).
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[m, "Tensor"["Real64", 2]]},
		Module[{out = ConstantArray[0., {2, 2}]},
			out[[1, 1]] = m[[1, 1]] + m[[2, 2]];
			out[[2, 2]] = m[[1, 2]] + m[[2, 1]];
			out]]`)
	if got := apply(t, ccf, "{{1., 2.}, {3., 4.}}"); got != "{{5., 0.}, {0., 5.}}" {
		t.Fatalf("stencil = %s", got)
	}
}

func TestCompileOptionsPropagate(t *testing.T) {
	c := newCompiler()
	c.Options.AbortHandling = false
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{i = 0}, While[i < n, i = i + 1]; i]]`)
	twir, _ := ccf.ExportString("TWIR")
	if strings.Contains(twir, "AbortCheck") {
		t.Fatal("AbortHandling->False must suppress abort checks")
	}
	c2 := newCompiler()
	ccf2 := compile(t, c2, `Function[{Typed[n, "MachineInteger"]},
		Module[{i = 0}, While[i < n, i = i + 1]; i]]`)
	twir2, _ := ccf2.ExportString("TWIR")
	if !strings.Contains(twir2, "AbortCheck") {
		t.Fatal("default compile must insert abort checks")
	}
}

func TestConditionedMacroCUDATarget(t *testing.T) {
	// §4.7: the TargetSystem-conditioned macro, end to end through the
	// compiler's options: compiling for CUDA rewrites Map before lowering,
	// so compilation fails with the CUDA symbol unknown (we have no CUDA
	// runtime) — proving the rewrite fired; the default target compiles.
	c := newCompiler()
	c.MacroEnv = macroWithCUDA(c)
	src := `Function[{Typed[v, "Tensor"["Real64", 1]]}, Map[Function[{x}, x*2.], v]]`
	if _, err := c.FunctionCompile(parser.MustParse(src)); err != nil {
		t.Fatalf("default target: %v", err)
	}
	c.CompileOpts = map[string]expr.Expr{"TargetSystem": expr.FromString("CUDA")}
	_, err := c.FunctionCompile(parser.MustParse(src))
	if err == nil || !strings.Contains(err.Error(), "CUDA`Map") {
		t.Fatalf("CUDA target should reach the CUDA`Map rewrite: %v", err)
	}
}

func TestFunctionCompileOfUntypedFunctionInfersFromBody(t *testing.T) {
	// A parameter without a Typed annotation is inferred from use when the
	// body pins it (here: StringLength forces String).
	c := newCompiler()
	ccf := compile(t, c, `Function[{s}, StringLength[s]]`)
	if got := apply(t, ccf, `"four"`); got != "4" {
		t.Fatalf("inferred-param call = %s", got)
	}
	if ccf.ParamTypes[0] != types.TString {
		t.Fatalf("param inferred as %v", ccf.ParamTypes[0])
	}
}

// macroWithCUDA builds a user macro environment with the paper's §4.7
// CUDA-conditioned Map rewrite chained onto the compiler's default.
func macroWithCUDA(c *Compiler) *macro.Env {
	env := macro.NewEnv(c.MacroEnv)
	env.RegisterConditioned(expr.Sym("Map"),
		func(opts map[string]expr.Expr) bool {
			v, ok := opts["TargetSystem"]
			return ok && expr.SameQ(v, expr.FromString("CUDA"))
		},
		pattern.Rule{
			LHS: parser.MustParse("Map[f_, lst_]"),
			RHS: parser.MustParse("CUDA`Map[f, lst]"),
		})
	return env
}

func TestCompiledProduct(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Product[i, {i, 1, n}]]`)
	if got := apply(t, ccf, "6"); got != "720" {
		t.Fatalf("6! = %s", got)
	}
	if got := apply(t, ccf, "0"); got != "1" {
		t.Fatalf("empty product = %s", got)
	}
}

func TestAbortInhibitDecorator(t *testing.T) {
	// §6: abort checking toggled selectively by wrapping expressions in
	// Native`AbortInhibit. The inhibited loop gets no header check; the
	// sibling loop keeps one.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0},
			Native`+"`"+`AbortInhibit[
				Module[{i = 0}, While[i < n, s = s + i; i = i + 1]]];
			Module[{j = 0}, While[j < n, s = s + j; j = j + 1]];
			s]]`)
	if got := apply(t, ccf, "5"); got != "20" {
		t.Fatalf("result = %s", got)
	}
	twir, _ := ccf.ExportString("TWIR")
	// One prologue check plus one loop-header check (second loop only).
	if got := strings.Count(twir, "AbortCheck"); got != 2 {
		t.Fatalf("abort checks = %d, want 2 (prologue + uninhibited loop):\n%s", got, twir)
	}
}

func TestCompiledListableMathFunctions(t *testing.T) {
	// Listable threading in compiled code: Sin over a whole tensor.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Sqrt[Abs[v]]]`)
	if got := apply(t, ccf, "{4., -9.}"); got != "{2., 3.}" {
		t.Fatalf("tensor sqrt-abs = %s", got)
	}
}

func TestCompiledNaryMinMax(t *testing.T) {
	// Min/Max of any arity fold to the binary primitives at macro time.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"],
		Typed[cc, "MachineInteger"], Typed[d, "MachineInteger"]},
		Min[a, b, cc, d]*1000 + Max[a, b, cc, d] + Min[a]]`)
	got := ccf.CallRaw(int64(5), int64(9), int64(2), int64(7))
	if got.(int64) != 2*1000+9+5 {
		t.Fatalf("n-ary Min/Max = %v", got)
	}
}

func TestCompiledRowExtractionAndTake(t *testing.T) {
	c := newCompiler()
	// Row extraction from a rank-2 tensor (part_row).
	ccf := compile(t, c, `Function[{Typed[m, "Tensor"["MachineInteger", 2]]},
		Module[{r = m[[2]]}, r[[1]]*100 + r[[3]]]]`)
	if got := apply(t, ccf, "{{1, 2, 3}, {4, 5, 6}}"); got != "406" {
		t.Fatalf("row extraction = %s", got)
	}
	// Take (list_take) and Length of the result.
	ccf = compile(t, c, `Function[{Typed[v, "Tensor"["MachineInteger", 1]]},
		Module[{w = Take[v, 3]}, Length[w]*1000 + w[[1]] + w[[2]] + w[[3]]]]`)
	if got := apply(t, ccf, "{7, 8, 9, 10, 11}"); got != "3024" {
		t.Fatalf("take = %s", got)
	}
	// Interpreter agreement for Take.
	out, err := c.Kernel.EvalGuarded(parser.MustParse(`Take[{7, 8, 9, 10, 11}, 3]`))
	if err != nil || expr.InputForm(out) != "{7, 8, 9}" {
		t.Fatalf("interpreter Take = %s (%v)", expr.InputForm(out), err)
	}
}

func TestCompiledTensorArithmetic(t *testing.T) {
	// Listable threading over whole tensors (F4's tensor_* natives): the
	// compiled results must equal the interpreter's threaded evaluation.
	c := newCompiler()
	cases := []struct{ src, arg, want string }{
		{`Function[{Typed[v, "Tensor"["MachineInteger", 1]]}, v + v]`,
			"{1, 2, 3}", "{2, 4, 6}"},
		{`Function[{Typed[v, "Tensor"["MachineInteger", 1]]}, v*v - v]`,
			"{2, 3, 4}", "{2, 6, 12}"},
		{`Function[{Typed[v, "Tensor"["MachineInteger", 1]]}, 10 - v]`,
			"{1, 2, 3}", "{9, 8, 7}"},
		{`Function[{Typed[v, "Tensor"["MachineInteger", 1]]}, -v + 1]`,
			"{1, 2, 3}", "{0, -1, -2}"},
		{`Function[{Typed[v, "Tensor"["Real64", 1]]}, v*2. + 0.5]`,
			"{1., 2.}", "{2.5, 4.5}"},
	}
	for _, cse := range cases {
		ccf := compile(t, c, cse.src)
		if got := apply(t, ccf, cse.arg); got != cse.want {
			t.Fatalf("%s on %s = %s, want %s", cse.src, cse.arg, got, cse.want)
		}
		// Agreement with the interpreter's Listable threading.
		interp, err := c.Kernel.EvalGuarded(parser.MustParse(
			cse.src + "[" + cse.arg + "]"))
		if err != nil {
			t.Fatalf("interpret %s: %v", cse.src, err)
		}
		if expr.InputForm(interp) != cse.want {
			t.Fatalf("interpreter disagrees on %s: %s", cse.src, expr.InputForm(interp))
		}
	}
}

func TestThreadLengthMismatchFallsBack(t *testing.T) {
	// Elementwise tensor arithmetic with unequal lengths raises a runtime
	// exception; the wrapper reverts to the interpreter, whose Thread
	// machinery reports its own error — the session survives either way.
	k := kernel.New()
	var log strings.Builder
	k.Out = &log
	c := NewCompiler(k)
	ccf, err := c.FunctionCompile(parser.MustParse(
		`Function[{Typed[a, "Tensor"["Real64", 1]], Typed[b, "Tensor"["Real64", 1]]}, a + b]`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := ccf.Apply([]expr.Expr{parser.MustParse("{1., 2.}"), parser.MustParse("{1., 2., 3.}")})
	// Both a surfaced error and a fallback result are acceptable; what is
	// not acceptable is a panic (the deferred recover converts it).
	_ = out
	_ = err
	if !strings.Contains(log.String(), "reverting to uncompiled evaluation") {
		t.Fatalf("expected the soft-failure warning, log=%q", log.String())
	}
}

func TestApplyArityMismatch(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[x, "Real64"]}, x]`)
	if _, err := ccf.Apply([]expr.Expr{expr.FromFloat(1), expr.FromFloat(2)}); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if _, err := ccf.Apply(nil); err == nil {
		t.Fatal("missing argument must error")
	}
}

func TestCompiledDeepRecursionSurvives(t *testing.T) {
	// Compiled recursion runs on the Go stack with one activation record per
	// level on the invocation's frame stack; a depth of 100k must work. The
	// only limit is the frame stack's (524 288 levels of this shape, see
	// TestCompiledRecursionPastDepthLimitThrows), far above the interpreter's.
	c := newCompiler()
	ccf, err := c.CompileNamed("depth", parser.MustParse(
		`Function[{Typed[n, "MachineInteger"]},
			If[n < 1, 0, depth[n - 1] + 1]]`))
	if err != nil {
		t.Fatal(err)
	}
	if got := ccf.CallRaw(int64(100_000)).(int64); got != 100_000 {
		t.Fatalf("depth = %d", got)
	}
}

func TestCompilerScalesToLargePrograms(t *testing.T) {
	// §4: "facilitate the compilation of large programs" — a generated
	// function with hundreds of statements compiles and runs correctly.
	var sb strings.Builder
	sb.WriteString(`Function[{Typed[x, "MachineInteger"]}, Module[{acc = 0}, `)
	want := int64(0)
	for i := 1; i <= 250; i++ {
		fmt.Fprintf(&sb, "acc = acc + Mod[x + %d, 97]; ", i)
		want += int64((5 + i) % 97)
	}
	sb.WriteString("acc]]")
	c := newCompiler()
	ccf := compile(t, c, sb.String())
	if got := ccf.CallRaw(int64(5)).(int64); got != want {
		t.Fatalf("large program = %d, want %d", got, want)
	}
	// The IR stays well-formed at this size.
	if err := ccf.Module.Lint(); err != nil {
		t.Fatal(err)
	}
}
