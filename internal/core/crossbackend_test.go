package core

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
)

// Cross-backend differential testing: the same TWIR must mean the same
// thing on the native closure JIT and the exported C translation unit
// (paper §4.6 — multiple backends over one typed IR). Programs are randomly
// generated from exact integer operations so agreement is bit-for-bit.

// genIntStateProgram builds a random integer program over parameter n: a few
// state variables folded through overflow-safe exact operations inside a
// While loop. Every operation used here exists on both backends.
func genIntStateProgram(rng *rand.Rand) string {
	const m = 100003 // prime modulus keeps every intermediate small and exact
	stmts := []string{}
	nStmts := 3 + rng.Intn(5)
	for i := 0; i < nStmts; i++ {
		k1, k2 := rng.Intn(97)+2, rng.Intn(997)+1
		switch rng.Intn(11) {
		case 10:
			// A rotation: the back edge copies a←b, b←c and c←Mod[a + b, …],
			// which reads two of the registers the edge overwrites.
			stmts = append(stmts, fmt.Sprintf("t = Mod[a + b, %d]; a = b; b = c; c = t", m))
		case 8:
			stmts = append(stmts, fmt.Sprintf("b = Mod[b + Abs[c - a], %d]", m))
		case 9:
			stmts = append(stmts, fmt.Sprintf("c = c + If[EvenQ[a], %d, If[OddQ[b], %d, 1]]", k1, k2))
		case 0:
			stmts = append(stmts, fmt.Sprintf("a = Mod[a*%d + b, %d]", k1, m))
		case 1:
			stmts = append(stmts, fmt.Sprintf("b = Mod[b + Quotient[a, %d], %d]", k1, m))
		case 2:
			stmts = append(stmts, "c = Min[a, Max[b, c]]")
		case 3:
			stmts = append(stmts, fmt.Sprintf("c = Mod[c + If[a > b, %d, %d], %d]", k1, k2, m))
		case 4:
			stmts = append(stmts, fmt.Sprintf("a = Mod[a + Sign[b - c] + %d, %d]", k2, m))
		case 5:
			stmts = append(stmts, fmt.Sprintf("b = Mod[BitXor[b, %d] + BitAnd[a, %d], %d]", k1, k2, m))
		case 6:
			stmts = append(stmts, fmt.Sprintf("c = Mod[c*%d + i, %d]", k1, m))
		default:
			stmts = append(stmts, fmt.Sprintf("a = Mod[Max[a, b] - Min[b, c] + %d, %d]", k2, m))
		}
	}
	return fmt.Sprintf(`Function[{Typed[n, "MachineInteger"]},
		Module[{a = 1, b = 2, c = 3, t = 0, i = 1},
			While[i <= n, %s; i++];
			a*1000000000000 + b*1000000 + c]]`,
		strings.Join(stmts, "; "))
}

// rotationLoop's back edge copies a←b, b←c and c←Mod[a + b, …]: a cycle of
// parallel copies in which saving one copy frees none of the others.
const rotationLoop = `Function[{Typed[n, "MachineInteger"]},
	Module[{a = 1, b = 2, c = 3, t = 0, i = 0},
		While[i < n, t = Mod[a + b, 100003]; a = b; b = c; c = t; i++];
		a*10000000000 + b*100000 + c]]`

// TestRotationLoopAtEveryLevel compiles rotationLoop at O0, O1 and O2 and
// holds both backends to the interpreter.
func TestRotationLoopAtEveryLevel(t *testing.T) {
	fn := parser.MustParse(rotationLoop)
	args := []int64{0, 1, 5, 40}
	want := make([]string, len(args))
	var main strings.Builder
	main.WriteString("int main(void) {\n")
	for i, n := range args {
		out, err := newCompiler().Kernel.Run(expr.New(fn, expr.FromInt64(n)))
		if err != nil {
			t.Fatalf("interpreter %d: %v", n, err)
		}
		want[i] = expr.InputForm(out)
		fmt.Fprintf(&main, "\tprintf(\"%%lld\\n\", (long long)Main(INT64_C(%d)));\n", n)
	}
	main.WriteString("\treturn 0;\n}\n")
	_, ccErr := exec.LookPath("cc")
	for level := 0; level <= 2; level++ {
		c := newCompiler()
		c.Options.OptimizationLevel = level
		type result struct {
			ccf *CompiledCodeFunction
			err error
		}
		done := make(chan result, 1)
		go func() {
			ccf, err := c.FunctionCompile(fn)
			done <- result{ccf, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(10 * time.Second):
			// A sequencer that never ends also never stops allocating: end
			// the test binary rather than run the package's other tests
			// beside it.
			panic(fmt.Sprintf("O%d: compiling the rotation loop took over 10 s", level))
		}
		if r.err != nil {
			t.Fatalf("O%d: %v", level, r.err)
		}
		for i, n := range args {
			if got := fmt.Sprint(r.ccf.CallRaw(n)); got != want[i] {
				t.Errorf("O%d: closure backend (%d) = %s, interpreter %s", level, n, got, want[i])
			}
		}
		if testing.Short() || ccErr != nil {
			continue
		}
		if got := runCBackend(t, r.ccf, main.String()); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("O%d: C backend %v, interpreter %v", level, got, want)
		}
	}
}

// runCBackend compiles the exported standalone C for ccf with the system C
// compiler and runs it once per argument, returning one output line each.
func runCBackend(t *testing.T, ccf *CompiledCodeFunction, mainSrc string) []string {
	t.Helper()
	out, err := exec.Command(buildCBackend(t, ccf, mainSrc)).Output()
	if err != nil {
		t.Fatalf("compiled C program: %v", err)
	}
	return strings.Fields(strings.TrimSpace(string(out)))
}

// buildCBackend compiles the CStandalone export plus mainSrc and returns
// the binary, for tests that run it more than once.
func buildCBackend(t *testing.T, ccf *CompiledCodeFunction, mainSrc string) string {
	t.Helper()
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on PATH")
	}
	src, err := ccf.ExportString("CStandalone")
	if err != nil {
		t.Fatalf("CStandalone export: %v", err)
	}
	dir := t.TempDir()
	cpath := filepath.Join(dir, "prog.c")
	if err := os.WriteFile(cpath, []byte(src+"\n#include <stdio.h>\n"+mainSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	if out, err := exec.Command(cc, "-std=c11", "-O1",
		"-Wall", "-Werror", "-o", bin, cpath, "-lm").CombinedOutput(); err != nil {
		t.Fatalf("cc: %v\n%s", err, out)
	}
	return bin
}

func TestCrossBackendIntegerPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	rng := rand.New(rand.NewSource(777))
	c := newCompiler()
	args := []int64{0, 3, 17, 64}
	for trial := 0; trial < 8; trial++ {
		src := genIntStateProgram(rng)
		ccf, err := c.FunctionCompile(parser.MustParse(src))
		if err != nil {
			t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
		}

		// Native backend.
		native := make([]int64, len(args))
		for i, n := range args {
			native[i] = ccf.CallRaw(n).(int64)
		}

		// C backend, one process printing a line per argument.
		var main strings.Builder
		main.WriteString("int main(void) {\n")
		for _, n := range args {
			fmt.Fprintf(&main, "\tprintf(\"%%lld\\n\", (long long)Main(INT64_C(%d)));\n", n)
		}
		main.WriteString("\treturn 0;\n}\n")
		lines := runCBackend(t, ccf, main.String())
		if len(lines) != len(args) {
			t.Fatalf("trial %d: C backend printed %d lines, want %d", trial, len(lines), len(args))
		}
		for i, line := range lines {
			got, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				t.Fatalf("trial %d: C output %q: %v", trial, line, err)
			}
			if got != native[i] {
				t.Fatalf("trial %d: C(%d) = %d, native = %d\n%s",
					trial, args[i], got, native[i], src)
			}
		}
	}
}

// Real-valued expressions: the C backend calls the platform libm while the
// native backend calls Go's math package, so agreement is to a tolerance.
func TestCrossBackendRealExpressions(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	rng := rand.New(rand.NewSource(555))
	c := newCompiler()
	xs := []float64{-2.5, -0.5, 0, 1, 3.25}
	x := expr.Sym("x")
	for trial := 0; trial < 6; trial++ {
		body := genRealExpr(rng, 1+rng.Intn(4))
		fn := expr.New(expr.SymFunction,
			expr.List(expr.New(expr.SymTyped, x, expr.FromString("Real64"))), body)
		ccf, err := c.FunctionCompile(fn)
		if err != nil {
			t.Fatalf("trial %d: compile %s: %v", trial, expr.InputForm(body), err)
		}

		var main strings.Builder
		main.WriteString("int main(void) {\n")
		for _, xv := range xs {
			fmt.Fprintf(&main, "\tprintf(\"%%.17g\\n\", Main(%g));\n", xv)
		}
		main.WriteString("\treturn 0;\n}\n")
		lines := runCBackend(t, ccf, main.String())
		if len(lines) != len(xs) {
			t.Fatalf("trial %d: got %d lines, want %d", trial, len(lines), len(xs))
		}
		for i, xv := range xs {
			want := ccf.CallRaw(xv).(float64)
			got, err := strconv.ParseFloat(lines[i], 64)
			if err != nil {
				t.Fatalf("trial %d: parse %q: %v", trial, lines[i], err)
			}
			diff := got - want
			if diff < 0 {
				diff = -diff
			}
			scale := 1.0
			if want > 1 || want < -1 {
				if want < 0 {
					scale = -want
				} else {
					scale = want
				}
			}
			if diff > 1e-9*scale {
				t.Fatalf("trial %d: C(%v) = %v, native = %v (%s)",
					trial, xv, got, want, expr.InputForm(body))
			}
		}
	}
}
