package codegen

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wolfc/internal/runtime"
	"wolfc/internal/types"
)

// End-to-end tests of the C backend: the emitted translation unit is
// compiled with the system C compiler against the wolfrt runtime header and
// executed, and its output must agree with the native (closure-JIT) backend
// running the same TWIR. This is the differential check that the two
// backends implement one semantics (paper §4.6: multiple backends from one
// typed IR).

// ccPath skips the test when no C compiler is available.
func ccPath(t *testing.T) string {
	t.Helper()
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on PATH")
	}
	return cc
}

// buildCExecutable emits standalone C for prog, appends mainSrc (a C main
// function calling Main and printing the result), compiles, and returns the
// binary path.
func buildCExecutable(t *testing.T, prog *Program, mainSrc string) string {
	t.Helper()
	cc := ccPath(t)
	src, err := EmitC(prog.Module, types.Builtin())
	if err != nil {
		t.Fatalf("EmitC: %v", err)
	}
	full := InlineCRuntime(src) + "\n#include <stdio.h>\n" + mainSrc
	dir := t.TempDir()
	cpath := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(cpath, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	out, err := exec.Command(cc, "-std=c11", "-O1",
		"-Wall", "-Werror", "-o", bin, cpath, "-lm").CombinedOutput()
	if err != nil {
		t.Fatalf("cc failed: %v\n%s\n--- emitted source ---\n%s", err, out, full)
	}
	return bin
}

// runC runs the binary and returns trimmed stdout.
func runC(t *testing.T, bin string) string {
	t.Helper()
	out, err := exec.Command(bin).CombinedOutput()
	if err != nil {
		t.Fatalf("compiled C program failed: %v\n%s", err, out)
	}
	return strings.TrimSpace(string(out))
}

// intMain renders a C main that prints Main(args...) as an integer.
func intMain(args ...int64) string {
	return fmt.Sprintf(
		"int main(void) { printf(\"%%lld\\n\", (long long)Main(%s)); return 0; }\n",
		joinArgs(args))
}

func realMain(args ...int64) string {
	return fmt.Sprintf(
		"int main(void) { printf(\"%%.17g\\n\", Main(%s)); return 0; }\n",
		joinArgs(args))
}

func joinArgs(args []int64) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = fmt.Sprintf("INT64_C(%d)", a)
	}
	return strings.Join(parts, ", ")
}

func TestCExecScalarLoop(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i++]; s]]`)
	want := prog.Main.CallValues(&RT{}, int64(50)).(int64)
	got := runC(t, buildCExecutable(t, prog, intMain(50)))
	if got != strconv.FormatInt(want, 10) {
		t.Fatalf("C backend = %s, native backend = %d", got, want)
	}
}

// Fibonacci by parallel assignment: the loop's phi web forms the swap-like
// cycle that the C backend's two-phase parallel move must break correctly.
func TestCExecPhiParallelMoves(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{a = 0, b = 1, i = 0, tmp},
			While[i < n, tmp = a + b; a = b; b = tmp; i++];
			a]]`)
	want := prog.Main.CallValues(&RT{}, int64(80)).(int64)
	got := runC(t, buildCExecutable(t, prog, intMain(80)))
	if got != strconv.FormatInt(want, 10) {
		t.Fatalf("C backend fib(80) = %s, native = %d", got, want)
	}
}

func TestCExecNewtonSqrt(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[x, "Real64"]},
		Module[{g = 1., i = 0},
			While[i < 40, g = 0.5*(g + x/g); i++];
			g]]`)
	want := prog.Main.CallValues(&RT{}, 2.0).(float64)
	bin := buildCExecutable(t, prog,
		"int main(void) { printf(\"%.17g\\n\", Main(2.0)); return 0; }\n")
	got, err := strconv.ParseFloat(runC(t, bin), 64)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("C backend sqrt(2) = %v, native = %v", got, want)
	}
}

// Constant folding can make a real constant infinite or NaN; the C backend
// spells those with math.h's names.
func TestCExecNonFiniteConstants(t *testing.T) {
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	for _, r := range []struct {
		src  string
		want float64
	}{
		{`Function[{Typed[x, "Real64"]}, x + 1.*^308*10.]`, math.Inf(1)},
		{`Function[{Typed[x, "Real64"]}, x - 1.*^308*10.]`, math.Inf(-1)},
		{`Function[{Typed[x, "Real64"]}, x + (1.*^308*10. - 1.*^308*10.)]`, math.NaN()},
	} {
		prog := compileSrc(t, r.src)
		native := prog.Main.CallValues(&RT{}, 1.0).(float64)
		out := runC(t, buildCExecutable(t, prog,
			"int main(void) { printf(\"%.17g\\n\", Main(1.0)); return 0; }\n"))
		// glibc prints a NaN with its sign bit set as "-nan".
		got, err := strconv.ParseFloat(strings.Replace(out, "-nan", "nan", 1), 64)
		if err != nil || !same(got, native) || !same(native, r.want) {
			t.Errorf("%s: C backend = %s, closure backend = %v, want %v", r.src, out, native, r.want)
		}
	}
}

// Mod, Quotient, Power, Min, Max, Abs, Sign, EvenQ and the bit operations on
// negative operands — the corners where C's truncating operators differ from
// the language's floored semantics.
func TestCExecNumberTheoryKit(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[a, "MachineInteger"], Typed[m, "MachineInteger"]},
		Module[{s = 0},
			s = Mod[s*131 + Mod[a, m], 1000000007];
			s = Mod[s*131 + Mod[-a, m], 1000000007];
			s = Mod[s*131 + Quotient[a, m], 1000000007];
			s = Mod[s*131 + Quotient[-a, m] + 100, 1000000007];
			s = Mod[s*131 + Min[a, m] + Max[-a, m], 1000000007];
			s = Mod[s*131 + Abs[-a] + Sign[-a], 1000000007];
			s = Mod[s*131 + If[EvenQ[a], 7, 11], 1000000007];
			s = Mod[s*131 + Power[Mod[a, 7], 3], 1000000007];
			s = Mod[s*131 + BitXor[BitAnd[a, m], BitOr[1, 2]], 1000000007];
			s]]`)
	for _, args := range [][2]int64{{17, 5}, {100, 7}, {23, 9}} {
		want := prog.Main.CallValues(&RT{}, args[0], args[1]).(int64)
		got := runC(t, buildCExecutable(t, prog, intMain(args[0], args[1])))
		if got != strconv.FormatInt(want, 10) {
			t.Fatalf("args %v: C backend = %s, native = %d", args, got, want)
		}
	}
}

func TestCExecVectorLoops(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0, n], s = 0, i = 1},
			While[i <= n, v[[i]] = i*i; i++];
			i = 1;
			While[i <= n, s = s + v[[i]]; i++];
			s]]`)
	want := prog.Main.CallValues(&RT{}, int64(100)).(int64)
	if want != 338350 {
		t.Fatalf("native backend sum of squares = %d", want)
	}
	got := runC(t, buildCExecutable(t, prog, intMain(100)))
	if got != "338350" {
		t.Fatalf("C backend = %s, want 338350", got)
	}
}

func TestCExecMatrixTrace(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{m = ConstantArray[0, {n, n}], i = 1, j = 1, s = 0},
			While[i <= n, j = 1; While[j <= n, m[[i, j]] = i*10 + j; j++]; i++];
			i = 1;
			While[i <= n, s = s + m[[i, i]]; i++];
			s]]`)
	want := prog.Main.CallValues(&RT{}, int64(8)).(int64)
	got := runC(t, buildCExecutable(t, prog, intMain(8)))
	if got != strconv.FormatInt(want, 10) {
		t.Fatalf("C backend trace = %s, native = %d", got, want)
	}
}

func TestCExecRealVectorDot(t *testing.T) {
	// v[i] = 1/i, w[i] = i, so Dot[v, w] = n exactly in exact arithmetic and
	// both backends must agree bit-for-bit (same summation order).
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0., n], w = ConstantArray[0., n], i = 1},
			While[i <= n, v[[i]] = 1./i; w[[i]] = 1.*i; i++];
			Dot[v, w]]]`)
	want := prog.Main.CallValues(&RT{}, int64(64)).(float64)
	got, err := strconv.ParseFloat(runC(t, buildCExecutable(t, prog, realMain(64))), 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("C backend Dot = %v, native = %v", got, want)
	}
}

func TestCExecTensorMathAndScalarOps(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0., n], i = 1, w, u},
			While[i <= n, v[[i]] = 0.1*i; i++];
			w = Sin[v];
			u = 2.*w;
			Dot[u, u]]]`)
	want := prog.Main.CallValues(&RT{}, int64(32)).(float64)
	got, err := strconv.ParseFloat(runC(t, buildCExecutable(t, prog, realMain(32))), 64)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("C backend = %v, native = %v", got, want)
	}
}

func TestCExecStringHashing(t *testing.T) {
	prog := compileSrc(t, `Function[{},
		Module[{s = "hello, wolfram" <> "!", h = 7, i = 1, codes},
			codes = ToCharacterCode[s];
			While[i <= Length[codes],
				h = Mod[h*131 + codes[[i]], 1000000007];
				i++];
			h*1000 + StringLength[s]]]`)
	want := prog.Main.CallValues(&RT{}).(int64)
	got := runC(t, buildCExecutable(t, prog,
		"int main(void) { printf(\"%lld\\n\", (long long)Main()); return 0; }\n"))
	if got != strconv.FormatInt(want, 10) {
		t.Fatalf("C backend = %s, native = %d", got, want)
	}
}

// Standalone mode has no interpreter to fall back to, so integer overflow —
// which the engine-integrated backends recover from via F2 soft failure —
// must be a diagnosed fatal error, not silent wraparound.
func TestCExecOverflowIsFatal(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{f = 1, i = 1}, While[i <= n, f = f*i; i++]; f]]`)
	bin := buildCExecutable(t, prog, intMain(30))
	out, err := exec.Command(bin).CombinedOutput()
	if err == nil {
		t.Fatalf("30! should overflow fatally in standalone mode, got %q", out)
	}
	if !strings.Contains(string(out), "overflow") {
		t.Fatalf("expected an overflow diagnostic, got %q", out)
	}
}

// Floor, Ceiling and Round of a real outside the machine-integer range throw
// IntegerOverflow on the closure backend (runtime.RealToI64); the C runtime
// must stop with its message there, not wrap through an undefined cast.
func TestCExecRealToIntegerIsChecked(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[op, "MachineInteger"], Typed[x, "Real64"]},
		If[op == 0, Floor[x], If[op == 1, Ceiling[x], Round[x]]]]`)
	bin := buildCExecutable(t, prog, `#include <stdlib.h>
int main(int argc, char **argv) {
	if (argc != 3) return 2;
	printf("%lld\n", (long long)Main(strtoll(argv[1], NULL, 10), strtod(argv[2], NULL)));
	return 0;
}
`)
	native := func(op int64, x float64) (v int64, threw bool) {
		defer func() {
			if exc, ok := recover().(*runtime.Exception); ok && exc.Kind == runtime.ExcOverflow {
				threw = true
			}
		}()
		return prog.Main.CallValues(&RT{}, op, x).(int64), false
	}
	for _, x := range []float64{2.5, -2.5, 1 << 62, -(1 << 63), 1 << 63, -(1 << 63) - 1025, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for op := int64(0); op < 3; op++ {
			want, threw := native(op, x)
			out, err := exec.Command(bin, strconv.FormatInt(op, 10), strconv.FormatFloat(x, 'g', -1, 64)).CombinedOutput()
			got := strings.TrimSpace(string(out))
			switch {
			case threw:
				if err == nil || !strings.Contains(got, "integer overflow in Floor, Ceiling or Round") {
					t.Errorf("op %d of %v: C printed %q (%v) where the closure backend throws IntegerOverflow", op, x, got, err)
				}
			case err != nil || got != strconv.FormatInt(want, 10):
				t.Errorf("op %d of %v: C = %q (%v), closure backend = %d", op, x, got, err, want)
			}
		}
	}
}

// Quotient[MinInt64, -1] and the shift counts the closure backend throws on
// (runtime.QuotI64, ShlI64, ShrI64: a negative count, a left shift that loses
// bits) stop the C runtime with its message; every other row prints the
// closure backend's value, including the counts of 64 and more that C leaves
// undefined.
func TestCExecIntegerEdgesAreChecked(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[op, "MachineInteger"], Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]},
		If[op == 0, Quotient[a, b], If[op == 1, BitShiftLeft[a, b], BitShiftRight[a, b]]]]`)
	bin := buildCExecutable(t, prog, `#include <stdlib.h>
int main(int argc, char **argv) {
	if (argc != 4) return 2;
	printf("%lld\n", (long long)Main(strtoll(argv[1], NULL, 10), strtoll(argv[2], NULL, 10), strtoll(argv[3], NULL, 10)));
	return 0;
}
`)
	native := func(r [3]int64) (v int64, threw bool) {
		defer func() {
			if exc, ok := recover().(*runtime.Exception); ok && exc.Kind == runtime.ExcOverflow {
				threw = true
			}
		}()
		return prog.Main.CallValues(&RT{}, r[0], r[1], r[2]).(int64), false
	}
	names := [3]string{"Quotient", "BitShiftLeft", "BitShiftRight"}
	for _, r := range [][3]int64{
		{0, math.MinInt64, -1}, {0, math.MinInt64, 1}, {0, math.MaxInt64, -1}, {0, -7, 2},
		{1, 1, -1}, {1, 0, -1}, {1, 1, 62}, {1, 1, 63}, {1, 1, 64}, {1, -1, 63}, {1, 0, 200},
		{2, 1, -1}, {2, -8, 200}, {2, 8, 64}, {2, -8, 1},
	} {
		want, threw := native(r)
		out, err := exec.Command(bin, strconv.FormatInt(r[0], 10), strconv.FormatInt(r[1], 10), strconv.FormatInt(r[2], 10)).CombinedOutput()
		got := strings.TrimSpace(string(out))
		switch {
		case threw:
			if err == nil || !strings.HasPrefix(got, "wolfrt: fatal: ") || !strings.Contains(got, names[r[0]]) {
				t.Errorf("%v: C printed %q (%v) where the closure backend throws IntegerOverflow", r, got, err)
			}
		case err != nil || got != strconv.FormatInt(want, 10):
			t.Errorf("%v: C = %q (%v), closure backend = %d", r, got, err, want)
		}
	}
}

// Integer Power squares repeatedly in both runtimes: at the machine-integer
// extremes it answers at once, and it stops the C runtime exactly where
// runtime.PowI64 throws.
func TestCExecIntegerPower(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]}, Power[a, b]]`)
	bin := buildCExecutable(t, prog, `#include <stdlib.h>
int main(int argc, char **argv) {
	if (argc != 3) return 2;
	printf("%lld\n", (long long)Main(strtoll(argv[1], NULL, 10), strtoll(argv[2], NULL, 10)));
	return 0;
}
`)
	for _, r := range [][2]int64{
		{0, math.MaxInt64}, {1, math.MaxInt64}, {-1, math.MaxInt64}, {-1, math.MaxInt64 - 1}, {2, 62}, {2, 63},
		{-2, 63}, {-2, 64}, {3, 39}, {3, 40}, {7, 0}, {0, 0}, {2, -1}, {math.MinInt64, 1}, {math.MinInt64, 2},
	} {
		var want int64
		exc := func() (exc *runtime.Exception) {
			defer func() { exc, _ = recover().(*runtime.Exception) }()
			want = prog.Main.CallValues(&RT{}, r[0], r[1]).(int64)
			return nil
		}()
		out, err := exec.Command(bin, strconv.FormatInt(r[0], 10), strconv.FormatInt(r[1], 10)).CombinedOutput()
		got := strings.TrimSpace(string(out))
		switch {
		case exc != nil:
			if err == nil || !strings.HasPrefix(got, "wolfrt: fatal: ") {
				t.Errorf("Power%v: C printed %q (%v) where the closure backend throws %v", r, got, err, exc)
			}
		case err != nil || got != strconv.FormatInt(want, 10):
			t.Errorf("Power%v: C = %q (%v), closure backend = %d", r, got, err, want)
		}
	}
}

// Part with a user-supplied index compiles to the checked part_1 entry
// point; out-of-range indices are fatal in standalone mode.
func TestCExecPartBoundsFatal(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[k, "MachineInteger"]},
		Module[{v = ConstantArray[0, 3]}, v[[1]] = 10; v[[k]]]]`)
	// In range: agree with the native backend.
	want := prog.Main.CallValues(&RT{}, int64(1)).(int64)
	got := runC(t, buildCExecutable(t, prog, intMain(1)))
	if got != strconv.FormatInt(want, 10) {
		t.Fatalf("C backend = %s, native = %d", got, want)
	}
	// Negative index resolves from the end, as on the native backend.
	wantNeg := prog.Main.CallValues(&RT{}, int64(-3)).(int64)
	gotNeg := runC(t, buildCExecutable(t, prog, intMain(-3)))
	if gotNeg != strconv.FormatInt(wantNeg, 10) {
		t.Fatalf("C backend v[[-3]] = %s, native = %d", gotNeg, wantNeg)
	}
	// Out of range: fatal with a Part diagnostic.
	bin := buildCExecutable(t, prog, intMain(5))
	out, err := exec.Command(bin).CombinedOutput()
	if err == nil {
		t.Fatalf("v[[5]] on a 3-vector should be fatal, got %q", out)
	}
	if !strings.Contains(string(out), "Part") {
		t.Fatalf("expected a Part diagnostic, got %q", out)
	}
}

// Elementwise tensor arithmetic: tensor⊕tensor, scalar⊕tensor, and unary
// minus all route through the wolfrt kind-dispatched loops.
func TestCExecTensorArithmetic(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0, n], i = 1, w, u, s = 0},
			While[i <= n, v[[i]] = i; i++];
			w = v + v;
			u = w - v;
			u = u*v;
			u = 100 - u;
			u = -u;
			u = u + 7;
			i = 1;
			While[i <= n, s = s + u[[i]]; i++];
			s]]`)
	want := prog.Main.CallValues(&RT{}, int64(12)).(int64)
	got := runC(t, buildCExecutable(t, prog, intMain(12)))
	if got != strconv.FormatInt(want, 10) {
		t.Fatalf("C backend = %s, native = %d", got, want)
	}
}

// One C translation unit can hold several functions; calls between them are
// direct C calls.
func TestCExecMultiFunctionModule(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{square, s = 0, i = 1},
			square = Function[{Typed[k, "MachineInteger"]}, k*k];
			While[i <= n, s = s + square[i]; i++];
			s]]`)
	want := prog.Main.CallValues(&RT{}, int64(20)).(int64)
	got := runC(t, buildCExecutable(t, prog, intMain(20)))
	if got != strconv.FormatInt(want, 10) {
		t.Fatalf("C backend = %s, native = %d", got, want)
	}
}
