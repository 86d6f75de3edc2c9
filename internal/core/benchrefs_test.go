package core

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
)

// benchProgram reads one of the benchmark's input programs: the ownership
// contract is pinned on exactly what the benchmark measures.
func benchProgram(t testing.TB, name string) expr.Expr {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "programs", name+".wl"))
	if err != nil {
		t.Fatal(err)
	}
	return parser.MustParse(string(src))
}

// newBenchCompiler is a compiler with the declaration the benchmark makes
// for its programs: QSort's Wolfram-source helper.
func newBenchCompiler(t testing.TB) *Compiler {
	t.Helper()
	c := newCompiler()
	c.TypeEnv.DeclareFunction(&types.FuncDef{
		Name: "BenchQSortHelper",
		Type: c.TypeEnv.MustParseSpec(parser.MustParse(
			`{"Tensor"["Real64", 1], "Integer64", "Integer64", {"Real64", "Real64"} -> "Boolean"} -> "Integer64"`)),
		Impl: benchProgram(t, "qsort_helper"),
	})
	return c
}

// Reference counts are the C lowering's (EmitC inserts them and refuses a
// module whose counts do not balance on some path), and the closure code
// relies on the shared flag instead: each program's C export verifies, and
// after a call (and after a second, when the pooled frame stack is reused)
// a shared argument tensor holds the elements and the flag it arrived with.
func TestBenchmarkProgramsLeaveArgumentRefCountsAlone(t *testing.T) {
	c := newBenchCompiler(t)
	cmp, err := c.FunctionCompile(benchProgram(t, "qsort_cmp"))
	if err != nil {
		t.Fatal(err)
	}
	real := func(dims ...int) *runtime.Tensor {
		tt := runtime.NewTensor(runtime.KR64, dims...)
		for i := range tt.F {
			tt.F[i] = float64((i*7)%13) / 4
		}
		return tt
	}
	ints := runtime.NewTensor(runtime.KI64, 300)
	for i := range ints.I {
		ints.I[i] = int64((i * 31) % 256)
	}
	for _, p := range []struct {
		name string
		args []any
	}{
		{"blur", []any{real(12, 12), int64(12), int64(12)}},
		{"histogram", []any{ints}},
		{"qsort", []any{real(64), cmp.FunctionValue()}},
		{"dot", []any{real(6, 6), real(6, 6)}},
	} {
		ccf, err := c.FunctionCompileRequest(benchProgram(t, p.name), CompileRequest{VerifyEach: true})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		// qsort calls through a function value, which wolfrt.h cannot spell:
		// EmitC refuses it by name after its counts verify.
		if _, err := ccf.ExportString("C"); err != nil && !(p.name == "qsort" && errors.Is(err, codegen.ErrNoCSpelling)) {
			t.Errorf("%s: C lowering: %v", p.name, err)
		}
		var before []*runtime.Tensor
		for _, a := range p.args {
			if tt, ok := a.(*runtime.Tensor); ok {
				tt.MarkShared()
				before = append(before, tt.Copy())
			}
		}
		for call := 0; call < 2; call++ {
			ccf.CallRaw(p.args...)
		}
		i := 0
		for _, a := range p.args {
			if tt, ok := a.(*runtime.Tensor); ok {
				if !tt.IsShared() || !slices.Equal(tt.I, before[i].I) || !slices.Equal(tt.F, before[i].F) {
					t.Errorf("%s: shared argument %d changed (shared %v)", p.name, i, tt.IsShared())
				}
				i++
			}
		}
	}
}
