package core

import (
	"fmt"
	"sync"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
	"wolfc/internal/types"
)

// Every compiler in the process reads one parsed standard library (the
// frozen roots behind types.Builtin and macro.DefaultEnv) while extending
// its own child. Eight compilers, each with its own kernel, compile and run
// different sources at once; -race checks the sharing.
func TestConcurrentCompilersShareLibrary(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := newCompiler()
			// A caller extension per compiler, written while the others read
			// the root: a macro, a class member and an overload.
			c.MacroEnv.Register(expr.Sym("Twice"), pattern.Rule{
				LHS: parser.MustParse("Twice[x_]"), RHS: parser.MustParse("x + x")})
			c.TypeEnv.DeclareClass("Ordered", fmt.Sprintf("Mine%d", g))
			c.TypeEnv.DeclareFunction(&types.FuncDef{
				Name:   "Native`Mine",
				Type:   c.TypeEnv.MustParseSpec(parser.MustParse(`{"Integer64"} -> "Integer64"`)),
				Native: "identity_int",
			})

			// Macros (Do, And, Twice), overloaded arithmetic and a library
			// function shipped as Wolfram source (Sort), all from the root.
			loop := fmt.Sprintf(`Function[{Typed[n, "MachineInteger"]},
				Module[{acc = 0}, Do[If[i > 0 && i <= n, acc = acc + Twice[i] + %d], {i, 1, n}]; acc]]`, g)
			ccf, err := c.FunctionCompile(parser.MustParse(loop))
			if err != nil {
				t.Errorf("goroutine %d: compile loop: %v", g, err)
				return
			}
			out, err := ccf.Apply([]expr.Expr{expr.FromInt64(10)})
			if want := fmt.Sprint(110 + 10*g); err != nil || expr.InputForm(out) != want {
				t.Errorf("goroutine %d: loop = %v, %v; want %s", g, out, err, want)
			}

			sorter := fmt.Sprintf(`Function[{Typed[v, "Tensor"["Integer64", 1]]}, Sort[v + %d]]`, g)
			ccf, err = c.FunctionCompile(parser.MustParse(sorter))
			if err != nil {
				t.Errorf("goroutine %d: compile sort: %v", g, err)
				return
			}
			out, err = ccf.Apply([]expr.Expr{parser.MustParse("{3, 1, 2}")})
			if want := fmt.Sprintf("{%d, %d, %d}", 1+g, 2+g, 3+g); err != nil || expr.InputForm(out) != want {
				t.Errorf("goroutine %d: sort = %v, %v; want %s", g, out, err, want)
			}
		}(g)
	}
	wg.Wait()
}

// A declared type may mention a variable outside any ForAll, and a
// declaration can sit in an environment several compilers chain to. Inference
// binds only variables it made itself: it replaces the declaration's variable
// at every call, so two goroutines typing the call at different types do not
// see each other's binding (or race on it), one function can use it at two
// types, and the declaration is the same afterwards.
func TestConcurrentCompilesAgainstAnOpenDeclaration(t *testing.T) {
	e := types.NewVar("e")
	open := &types.Fn{Params: []types.Type{e}, Ret: e}
	library := types.NewEnv(types.Builtin())
	library.DeclareFunction(&types.FuncDef{Name: "OpenNegate", Type: open, Native: "unary_minus"})

	cases := []struct{ src, arg, want string }{
		{`Function[{Typed[x, "MachineInteger"]}, OpenNegate[x]]`, "5", "-5"},
		{`Function[{Typed[x, "Real64"]}, OpenNegate[x]]`, "2.5", "-2.5"},
	}
	var wg sync.WaitGroup
	for g, tc := range cases {
		wg.Add(1)
		go func(g int, src, arg, want string) {
			defer wg.Done()
			c := newCompiler()
			c.TypeEnv = types.NewEnv(library)
			for i := 0; i < 40; i++ {
				ccf, err := c.FunctionCompile(parser.MustParse(src))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				out, err := ccf.Apply([]expr.Expr{parser.MustParse(arg)})
				if err != nil || expr.InputForm(out) != want {
					t.Errorf("goroutine %d: got %v, %v; want %s", g, out, err, want)
					return
				}
			}
		}(g, tc.src, tc.arg, tc.want)
	}
	wg.Wait()

	c := newCompiler()
	c.TypeEnv = types.NewEnv(library)
	both := compile(t, c, `Function[{Typed[x, "MachineInteger"], Typed[y, "Real64"]}, OpenNegate[y] + OpenNegate[x]]`)
	if out, err := both.Apply([]expr.Expr{expr.FromInt64(3), parser.MustParse("1.5")}); err != nil || expr.InputForm(out) != "-4.5" {
		t.Errorf("one function, two instantiations: %v, %v", out, err)
	}
	if open.Params[0] != types.Type(e) || open.Ret != types.Type(e) || len(types.FreeVars(open)) != 1 {
		t.Errorf("the declaration changed: %v", open)
	}
}

// A compiler is two empty child environments over the shared library, not a
// parse of the standard library (15 328 allocations before ISSUE 16).
func TestNewCompilerAllocs(t *testing.T) {
	// AllocsPerRun's own warm-up call takes the one-time parse.
	if n := testing.AllocsPerRun(100, func() { NewCompilerWith(nil, nil) }); n > 32 {
		t.Fatalf("NewCompilerWith allocates %v times; it must not rebuild the standard library", n)
	}
}

func BenchmarkNewCompiler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchCompilerSink = NewCompilerWith(nil, nil)
	}
}

var benchCompilerSink *Compiler
