package core

import (
	"fmt"
	"os/exec"
	goruntime "runtime"
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
)

// twirOf is the module's printed TWIR.
func twirOf(t *testing.T, ccf *CompiledCodeFunction) string {
	t.Helper()
	out, err := ccf.ExportString("TWIR")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func realVec(vals ...float64) *runtime.Tensor {
	t := runtime.NewTensor(runtime.KR64, len(vals))
	copy(t.F, vals)
	return t
}

// TestElementwiseReuseNeverAliasesLive: elementwise arithmetic writes its
// result over an operand only when that operand is a temporary nothing can
// see again. A temporary read again afterwards, a parameter, a constant, a
// value carried by a phi and a Shared input are never written through, in
// either operand position; the dying temporary is (the TWIR names the
// instruction _into), and the answers are the ones the plain forms give.
func TestElementwiseReuseNeverAliasesLive(t *testing.T) {
	c := newCompiler()
	vec := `Typed[v, "Tensor"["Real64", 1]]`
	for _, tc := range []struct {
		name, src string
		into      int // _into instructions expected in the TWIR
		want      string
	}{
		{"dying temporary, first operand", `Function[{` + vec + `, Typed[x, "Real64"]}, {x, 2.*x} + v]`, 1, "[11 22]"},
		{"dying temporary, second operand", `Function[{` + vec + `, Typed[x, "Real64"]}, v - {x, 2.*x}]`, 1, "[9 18]"},
		{"chain of temporaries", `Function[{` + vec + `, Typed[x, "Real64"]}, Sqrt[({x, x} + v)*4. - v]]`, 4, "[5.830951894845301 8]"},
		{"temporary read again", `Function[{` + vec + `, Typed[x, "Real64"]},
			Module[{t = {x, 2.*x}, u = v}, u = t + v; u + t]]`, 1, "[12 24]"}, // only u = t + v's result dies
		{"parameters", `Function[{` + vec + `, Typed[x, "Real64"]}, v + v*x]`, 1, "[20 40]"}, // v*x is a temporary, v is not
		{"constant", `Function[{` + vec + `, Typed[x, "Real64"]}, {1., 2.} + v]`, 0, "[11 22]"},
		{"constant, second operand", `Function[{` + vec + `, Typed[x, "Real64"]}, v*{1., 2.}]`, 0, "[10 40]"},
		{"phi-carried", `Function[{` + vec + `, Typed[x, "Real64"]},
			Module[{acc = v, first = v, i = 1}, While[i <= 3, acc = acc + v; i = i + 1]; acc - first]]`, 0, "[30 60]"},
		// A loop-carried accumulator of its own is written over in place;
		// one that compiled code also received may come back under another
		// name (id returns it), so it is not.
		{"phi-carried, private", `Function[{` + vec + `, Typed[x, "Real64"]},
			Module[{acc = v*x, i = 1}, While[i <= 3, acc = acc + v; i = i + 1]; acc]]`, 1, "[40 80]"},
		{"phi-carried, handed to a call", `Function[{` + vec + `, Typed[x, "Real64"]},
			Module[{acc = v*x, saved = v*0., i = 1, id = Function[{y}, y]},
				While[i <= 3, saved = id[acc]; acc = acc + v; i = i + 1]; saved - acc]]`, 0, "[-10 -20]"},
	} {
		ccf, err := c.FunctionCompileRequest(parser.MustParse(tc.src), CompileRequest{VerifyEach: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := strings.Count(twirOf(t, ccf), "_into"); n != tc.into {
			t.Errorf("%s: %d instructions write over an operand, want %d:\n%s", tc.name, n, tc.into, twirOf(t, ccf))
		}
		for _, shared := range []bool{false, true} {
			for round := 0; round < 2; round++ { // twice: a constant written through would show the second time
				v := realVec(10, 20)
				if shared {
					v.MarkShared()
				}
				got := ccf.CallRaw(v, 1.0).(*runtime.Tensor)
				if fmt.Sprint(got.F) != tc.want {
					t.Errorf("%s (shared=%v, call %d) = %v, want %s", tc.name, shared, round+1, got.F, tc.want)
				}
				if v.F[0] != 10 || v.F[1] != 20 {
					t.Errorf("%s (shared=%v): the argument was written through: %v", tc.name, shared, v.F)
				}
				if got == v {
					t.Errorf("%s (shared=%v): the result is the argument itself", tc.name, shared)
				}
			}
		}
	}
	// With copy elision off no instruction writes over an operand.
	off := newCompiler()
	off.Options.DisableCopyElision = true
	ccf := compile(t, off, `Function[{`+vec+`, Typed[x, "Real64"]}, {x, 2.*x} + v]`)
	if strings.Contains(twirOf(t, ccf), "_into") {
		t.Errorf("DisableCopyElision left an _into instruction:\n%s", twirOf(t, ccf))
	}
}

// The random walk's shape: each step's sum is stored in the result list and
// comes round as the next step's operand. The result is one packed matrix,
// so the store copies the sum in, and the next sum may be written over the
// operand that came round; the rows already stored stay what they were,
// whichever side of the sum the list literal is on.
func TestElementwiseReuseKeepsStoredRows(t *testing.T) {
	for _, step := range []string{"{#[[2]], 1.} + #", "# + {#[[2]], 1.}"} {
		ccf := compile(t, newCompiler(), `Function[{Typed[n, "MachineInteger"]}, NestList[`+step+` &, {0., 0.}, n]]`)
		if !strings.Contains(twirOf(t, ccf), "tensor_plus_into") {
			t.Errorf("%s does not write over an operand:\n%s", step, twirOf(t, ccf))
		}
		for round := 0; round < 2; round++ { // the seed {0., 0.} is a constant: a write through it shows the second time
			got := ccf.CallRaw(int64(3)).(*runtime.Tensor)
			if fmt.Sprint(got.Dims) != "[4 2]" {
				t.Fatalf("NestList[%s &, {0., 0.}, 3] has shape %v, want one 4x2 packed array", step, got.Dims)
			}
			var rows []string
			for i := 0; i < 4; i++ {
				rows = append(rows, fmt.Sprint(got.F[2*i:2*i+2]))
			}
			if want := "[0 0] [0 1] [1 2] [3 3]"; strings.Join(rows, " ") != want {
				t.Errorf("NestList[%s &, {0., 0.}, 3] has rows %v, want %s", step, rows, want)
			}
		}
	}
}

// TestRandomWalkAllocsPerStep: a step of the Figure 1 random walk,
// {-Cos[a], Sin[a]} + #, allocates nothing. The walk is one packed matrix
// whose rows the steps copy in; the list literal is never built (the sum
// reads its two scalars from their registers); and the sum is written over
// the point the last step made, which the matrix has already copied. The
// constant seed {0., 0.} is Shared, so the first step alone allocates a
// point. (Two allocations a step before the walk was packed, six before
// elementwise arithmetic wrote over a dying operand.)
func TestRandomWalkAllocsPerStep(t *testing.T) {
	ccf, err := newCompiler().FunctionCompile(benchProgram(t, "randomwalk"))
	if err != nil {
		t.Fatal(err)
	}
	if tw := twirOf(t, ccf); !strings.Contains(tw, "tensor_plus_into2") || !strings.Contains(tw, "(Integer64)->Tensor[Real64, 2]") {
		t.Fatalf("the walk is not one packed matrix whose step writes over the last point:\n%s", tw)
	}
	allocs := func(steps int64) float64 {
		return testing.AllocsPerRun(20, func() { ccf.CallRaw(steps) })
	}
	if perStep := (allocs(1200) - allocs(200)) / 1000; perStep > 0.01 {
		t.Errorf("%.3f allocations per step, want 0", perStep)
	}
	// 20 000 steps allocate the 20 001 x 2 matrix and a few headers.
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	ccf.CallRaw(int64(20000))
	goruntime.ReadMemStats(&after)
	matrix := 20001 * 2 * 8
	if got := after.TotalAlloc - before.TotalAlloc; float64(got) > 1.1*float64(matrix) {
		t.Errorf("a 20 000-step walk allocated %d bytes, over 1.1x its %d-byte matrix", got, matrix)
	}
}

// Compiled a + b on two matrices of one type threads only over equal shapes.
// Compiled code used to compare flat lengths, so a 2x2 plus a 1x4 matrix
// added where the interpreter reports lists of unequal length (F1). Now the
// runtime throws into the soft fallback (F2) and the session prints the
// interpreter's message and answer.
func TestThreadingUnequalShapesFallsBack(t *testing.T) {
	c := newCompiler()
	var log strings.Builder
	c.Kernel.Out = &log
	ccf := compile(t, c, `Function[{Typed[a, "Tensor"["Real64", 2]], Typed[b, "Tensor"["Real64", 2]]}, a + b]`)
	arg := func(s string) expr.Expr { return parser.MustParse(s) }
	out, err := ccf.Apply([]expr.Expr{arg("{{1., 2.}, {3., 4.}}"), arg("{{1., 2.}, {3., 4.}}")})
	if err != nil || expr.InputForm(out) != "{{2., 4.}, {6., 8.}}" {
		t.Fatalf("2x2 + 2x2 = %v (%v)", out, err)
	}
	if log.Len() != 0 {
		t.Fatalf("equal shapes printed %q", log.String())
	}
	args := []expr.Expr{arg("{{1., 2.}, {3., 4.}}"), arg("{{1., 2., 3., 4.}}")}
	want, werr := c.Kernel.EvalGuarded(expr.New(ccf.Source, args...))
	out, err = ccf.Apply(args)
	if !strings.Contains(log.String(), "CompiledCodeFunction::cfse") || !strings.Contains(log.String(), "unequal shape") {
		t.Errorf("2x2 + 1x4 printed %q, want the cfse warning naming the shapes", log.String())
	}
	if !strings.Contains(log.String(), "Thread") {
		t.Errorf("the interpreter's Thread message is missing from %q", log.String())
	}
	if fmt.Sprint(err) != fmt.Sprint(werr) || (out == nil) != (want == nil) || out != nil && !expr.SameQ(out, want) {
		t.Errorf("2x2 + 1x4 through Apply = %v (%v), the interpreter says %v (%v)", out, err, want, werr)
	}
}

// Elementwise arithmetic that writes over dying temporaries computes on the C
// backend what it computes here, and both reject unequal shapes (the C
// runtime reuses an operand that holds the only reference; standalone C dies
// naming the shapes where this backend throws).
func TestCrossBackendElementwiseReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	c := newCompiler()
	ccf, err := c.FunctionCompileRequest(parser.MustParse(`Function[{Typed[n, "MachineInteger"], Typed[cols, "MachineInteger"]},
		Module[{v = ConstantArray[1.5, n], m = ConstantArray[2., {2, 2}], w = ConstantArray[1., {2, cols}], u = ConstantArray[0., n], s = 0., i = 1},
			u = Sqrt[(v + v)*2. - v*v] - (1. - Exp[-v]);
			While[i <= n, s = s*1.5 + u[[i]]; i++];
			m = m*w + w;
			s + m[[2, 2]]]]`), CompileRequest{VerifyEach: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(twirOf(t, ccf), "_into"); n < 6 {
		t.Errorf("only %d instructions write over an operand:\n%s", n, twirOf(t, ccf))
	}
	bin := buildCBackend(t, ccf, "#include <stdlib.h>\nint main(int argc, char **argv) { (void)argc; "+
		"printf(\"%.17g\\n\", Main(atoll(argv[1]), atoll(argv[2]))); return 0; }\n")
	want := fmt.Sprint(ccf.CallRaw(int64(3), int64(2)))
	out, err := exec.Command(bin, "3", "2").CombinedOutput()
	if err != nil || fmt.Sprint(mustFloat(strings.TrimSpace(string(out)))) != want {
		t.Errorf("C = %q (%v), closure = %s", out, err, want)
	}
	func() {
		defer func() {
			if exc, ok := recover().(*runtime.Exception); !ok || exc.Kind != runtime.ExcType {
				t.Errorf("2x2 * 2x3 on the closure backend: %v, want the unequal-shape exception", exc)
			}
		}()
		ccf.CallRaw(int64(3), int64(3))
	}()
	if out, err := exec.Command(bin, "3", "3").CombinedOutput(); err == nil || !strings.Contains(string(out), "shapes") {
		t.Errorf("2x2 * 2x3 in C should die naming the shapes, got %q (%v)", out, err)
	}
}

// TestElementwiseComplexMatchesInterpreter: complex tensors thread the
// complex element functions, in every form: tensor and tensor, tensor and
// scalar either way round, and Minus. The compiled call must give the
// interpreter's result without falling back to it.
func TestElementwiseComplexMatchesInterpreter(t *testing.T) {
	c := newCompiler()
	var msgs strings.Builder
	c.Kernel.Out = &msgs
	src := `Function[{Typed[a, "Tensor"["ComplexReal64", 1]], Typed[z, "ComplexReal64"]}, {a + a, z*a - a, a*z, z - a, -a}]`
	args := `{Complex[1., 2.], Complex[3., -4.]}, Complex[0.5, 0.75]`
	ccf := compile(t, c, src)
	want, err := c.Kernel.Run(parser.MustParse(src + "[" + args + "]"))
	if err != nil {
		t.Fatal(err)
	}
	vals, err := c.Kernel.Run(parser.MustParse("{" + args + "}"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ccf.Apply(vals.(*expr.Normal).Args())
	if err != nil || expr.InputForm(got) != expr.InputForm(want) || msgs.Len() != 0 {
		t.Errorf("compiled %s (%v), interpreted %s; %s", expr.InputForm(got), err, expr.InputForm(want), msgs.String())
	}
}
