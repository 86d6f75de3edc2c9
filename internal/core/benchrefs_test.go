package core

import (
	"os"
	"path/filepath"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
)

// benchProgram reads one of the benchmark's input programs: the refcount
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

// Every reference a compiled program takes on an argument tensor it gives
// back: after a call (and after a second, when the pooled frame stack is
// reused) the caller's tensors carry the count they arrived with, shared or
// not.
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
		for _, shared := range []bool{false, true} {
			var before []int32
			for _, a := range p.args {
				if tt, ok := a.(*runtime.Tensor); ok {
					if shared {
						tt.MarkShared()
					}
					tt.Acquire() // the caller's own reference
					before = append(before, tt.RefCount())
				}
			}
			for call := 0; call < 2; call++ {
				out := ccf.CallRaw(p.args...)
				if res, ok := out.(*runtime.Tensor); ok && res.RefCount() != 1 {
					t.Errorf("%s: result arrives with %d references, want the one the callee hands over", p.name, res.RefCount())
				}
			}
			i := 0
			for _, a := range p.args {
				if tt, ok := a.(*runtime.Tensor); ok {
					if got := tt.RefCount(); got != before[i] {
						t.Errorf("%s (shared %v): argument %d reference count %d -> %d", p.name, shared, i, before[i], got)
					}
					i++
				}
			}
		}
	}
}
