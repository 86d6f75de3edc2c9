package core

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
)

func TestExportCString(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[arg, "MachineInteger"]}, arg + 1]`)
	src, err := ccf.ExportString("C")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"#include <stdint.h>",
		"int64_t Main(int64_t arg)",
		"wolfrt_add_i64(arg, INT64_C(1))",
		"return",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("C export missing %q:\n%s", want, src)
		}
	}
}

func TestExportCWithLoops(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i; i++]; s]]`)
	src, err := ccf.ExportString("C")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"goto L", "if (", "wolfrt_abort_check"} {
		if !strings.Contains(src, want) {
			t.Fatalf("C export missing %q:\n%s", want, src)
		}
	}
}

// The C export counts references on its own copy of the module: eight
// goroutines export one function while two more call it, the closure code's
// module holds no count before or after, and every export has the counts.
func TestExportCCountsACopy(t *testing.T) {
	ccf := compile(t, newCompiler(), `Function[{Typed[data, "Tensor"["Integer64", 1]]},
		Module[{bins = ConstantArray[0, 8], i = 1, b = 0},
			While[i <= Length[data], b = data[[i]]; bins[[b]] = bins[[b]] + 1; i = i + 1];
			bins]]`)
	before := ccf.Module.String()
	for _, f := range ccf.Module.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if n := in.NativeName(); n == "memory_acquire" || n == "memory_release" {
					t.Fatalf("closure-compiled module holds %s:\n%s", n, before)
				}
			}
		}
	}
	want, err := ccf.ExportString("C")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "wolfrt_memory_acquire(") || !strings.Contains(want, "wolfrt_memory_release(") {
		t.Fatalf("C export holds no reference counts:\n%s", want)
	}
	arg := runtime.NewTensor(runtime.KI64, 64)
	for i := range arg.I {
		arg.I[i] = int64(i%8 + 1)
	}
	arg.MarkShared()
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if g < 8 {
					if src, err := ccf.ExportString("C"); err != nil || src != want {
						t.Errorf("concurrent C export differs (%v)", err)
						return
					}
				} else if out := ccf.CallRaw(arg).(*runtime.Tensor); !slices.Equal(out.I, []int64{8, 8, 8, 8, 8, 8, 8, 8}) {
					t.Errorf("call returned %v", out.I)
					return
				}
			}
		}()
	}
	wg.Wait()
	if after := ccf.Module.String(); after != before {
		t.Fatalf("C export changed the shared module:\n%s\n--- after ---\n%s", before, after)
	}
}

// Every format ExportString accepts renders addOne, and the error for an
// unknown format names exactly those formats.
func TestExportFormats(t *testing.T) {
	formats := []string{"C", "CStandalone", "TWIR", "Regions", "AST"}
	ccf := compile(t, newCompiler(), `Function[{Typed[arg, "MachineInteger"]}, arg + 1]`)
	for _, f := range formats {
		if out, err := ccf.ExportString(f); err != nil || out == "" {
			t.Errorf("%s export = %q, %v", f, out, err)
		}
	}
	_, err := ccf.ExportString("WVM")
	if err == nil {
		t.Fatal("WVM is not an export format")
	}
	_, named, _ := strings.Cut(err.Error(), "(want ")
	named, _, _ = strings.Cut(named, ")")
	if got := strings.Split(strings.Replace(named, "or ", "", 1), ", "); !slices.Equal(got, formats) {
		t.Fatalf("unknown-format error names %q, want %q: %v", got, formats, err)
	}
}

func TestExportStageDumps(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[x, "Real64"]}, x*2]`)
	twir, err := ccf.ExportString("TWIR")
	if err != nil || !strings.Contains(twir, "Real64") {
		t.Fatalf("TWIR dump: %v\n%s", err, twir)
	}
	ast, err := ccf.ExportString("AST")
	if err != nil || !strings.Contains(ast, "Times") {
		t.Fatalf("AST dump: %v\n%s", err, ast)
	}
	if _, err := ccf.ExportString("PTX"); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestExportLibraryRoundTrip(t *testing.T) {
	// F10: AOT export + reload without source, then identical behaviour.
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i++]; s]]`)
	var buf bytes.Buffer
	if err := ccf.ExportLibrary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCompiledLibrary(newCompiler(), &buf, false)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ccf.Apply([]expr.Expr{expr.FromInt64(100)})
	got, err := loaded.Apply([]expr.Expr{expr.FromInt64(100)})
	if err != nil {
		t.Fatal(err)
	}
	if !expr.SameQ(want, got) {
		t.Fatalf("reloaded = %s, want %s", expr.InputForm(got), expr.InputForm(want))
	}
}

func TestExportLibraryWithLambdas(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Map[Function[{x}, x*3.], v]]`)
	var buf bytes.Buffer
	if err := ccf.ExportLibrary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCompiledLibrary(newCompiler(), &buf, true)
	if err != nil {
		t.Fatal(err)
	}
	out, err := loaded.Apply([]expr.Expr{parser.MustParse("{1., 2.}")})
	if err != nil {
		t.Fatal(err)
	}
	if expr.InputForm(out) != "{3., 6.}" {
		t.Fatalf("loaded map = %s", expr.InputForm(out))
	}
}

func TestStandaloneModeDisablesEngine(t *testing.T) {
	// §4.6: "when using code in standalone mode, certain functionalities
	// such as interpreter integration and abortable code are disabled".
	c := newCompiler()
	c.Kernel.Run(parser.MustParse("userFn[x_] := x + 1"))
	ccf := compile(t, c, `Function[{Typed[x, "MachineInteger"]},
		KernelFunction[userFn][x]]`)
	var buf bytes.Buffer
	if err := ccf.ExportLibrary(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCompiledLibrary(newCompiler(), &buf, true)
	if err != nil {
		t.Fatal(err)
	}
	// The escape surfaces as a soft error naming the head, not a crash.
	_, err = loaded.Apply([]expr.Expr{expr.FromInt64(1)})
	if err == nil {
		t.Fatal("kernel escape must fail in standalone mode")
	}
	if !strings.Contains(err.Error(), "userFn") {
		t.Fatalf("standalone escape error %q does not name the escaping head", err)
	}
	if !strings.Contains(err.Error(), "standalone") {
		t.Fatalf("standalone escape error %q does not mention standalone mode", err)
	}
}

// A standalone library has no engine to draw random numbers from: a draw
// throws the soft kernel exception a kernel escape throws there, which Apply
// reports as an error and CallRaw unwinds with, never a nil dereference. The
// same library loaded beside its kernel draws.
func TestStandaloneRandomThrows(t *testing.T) {
	for _, src := range []string{
		`Function[{Typed[x, "Real64"]}, x + RandomReal[]]`,
		`Function[{Typed[x, "Real64"]}, x + RandomReal[{1., 2.}]]`,
		`Function[{Typed[x, "Integer64"]}, x + RandomInteger[{1, 6}]]`,
	} {
		ccf := compile(t, newCompiler(), src)
		arg, raw := expr.Expr(expr.FromFloat(1)), any(1.0)
		if ccf.ParamTypes[0] != types.TReal64 {
			arg, raw = expr.FromInt64(1), int64(1)
		}
		var buf bytes.Buffer
		if err := ccf.ExportLibrary(&buf); err != nil {
			t.Fatal(err)
		}
		lib := buf.Bytes()
		hosted, err := LoadCompiledLibrary(newCompiler(), bytes.NewReader(lib), false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hosted.Apply([]expr.Expr{arg}); err != nil {
			t.Errorf("%s: hosted draw: %v", src, err)
		}
		hosted.CallRaw(raw)
		loaded, err := LoadCompiledLibrary(newCompiler(), bytes.NewReader(lib), true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loaded.Apply([]expr.Expr{arg}); err == nil || !strings.Contains(err.Error(), "standalone") {
			t.Errorf("%s: standalone Apply gave %v, want an error naming standalone mode", src, err)
		}
		func() {
			defer func() {
				if exc, ok := recover().(*runtime.Exception); !ok || exc.Kind != runtime.ExcKernel {
					t.Errorf("%s: standalone CallRaw unwound with %v, want a kernel exception", src, exc)
				}
			}()
			loaded.CallRaw(raw)
		}()
	}
}

// The Regions export is the tree the function runs as: compiled with fusion
// off there is no sum node in it and no call is a node of a tree, and on the
// baseline rung neither. Fused, fib's two calls are the operands of its sum.
func TestExportRegionsFollowsTheCompilersFusion(t *testing.T) {
	const src = `Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, x + 2.*y - x*y + 1.]`
	off, baseline := newCompiler(), newStencilCompiler()
	off.FuseLevel = codegen.FuseOff
	for _, cse := range []struct {
		name  string
		c     *Compiler
		fused bool
	}{{"full fusion", newCompiler(), true}, {"fusion off", off, false}, {"baseline rung", baseline, false}} {
		out, err := compile(t, cse.c, src).ExportString("Regions")
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(out, ", sum %"); got != cse.fused {
			t.Errorf("%s: sum node in the printed tree is %v, want %v:\n%s", cse.name, got, cse.fused, out)
		}
		fib, err := cse.c.CompileNamed("cfib", parser.MustParse(cfibSrc))
		if err != nil {
			t.Fatal(err)
		}
		if out, err = fib.ExportString("Regions"); err != nil {
			t.Fatal(err)
		}
		want := 0
		if cse.fused {
			want = 2
		}
		if got := len(regexp.MustCompile(`, call %\d+ in %\d+`).FindAllString(out, -1)); got != want {
			t.Errorf("%s: %d calls in fib's printed tree are nodes of it, want %d:\n%s", cse.name, got, want, out)
		}
	}
}
