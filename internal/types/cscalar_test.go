package types_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
)

// cScalarCall is one call the C translation unit makes: a scalar instance's
// function at one combination of sample points, and what the runtime's table
// function returns there.
type cScalarCall struct {
	what string
	ret  types.Type
	want any
}

// TestCScalarsMatchRuntimeTable: the C backend's spelling of every scalar
// native instance that has a cNatives row and a runtime function computes
// what runtime.ScalarOf's function computes, at every combination of sample
// points where the Go function does not throw (those points are
// TestCExecIntegerEdgesAreChecked's). Every instance is emitted into one
// translation unit with one main, built by one cc run.
func TestCScalarsMatchRuntimeTable(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on PATH")
	}
	k := kernel.New()
	k.Out = io.Discard
	c := core.NewCompiler(k)
	var unit, main strings.Builder
	var calls []cScalarCall
	instances := 0
	forEachScalarOverload(t, c.TypeEnv, func(name string, d *types.FuncDef, sig *types.Fn, fn expr.Expr) {
		kinds := make([]runtime.Kind, len(sig.Params))
		for i, p := range sig.Params {
			kinds[i] = runtime.KindOf(p)
		}
		if sig.Ret == types.TVoid {
			return
		}
		s := runtime.ScalarOf(d.Native, runtime.KindOf(sig.Ret), kinds...)
		if s == nil {
			return
		}
		ccf, err := c.FunctionCompile(fn)
		if err != nil {
			t.Errorf("%s: %v", expr.InputForm(fn), err)
			return
		}
		// A copy of the module whose functions carry the instance's number,
		// so that every instance's C lives in one translation unit.
		var buf bytes.Buffer
		if err := codegen.Marshal(&buf, ccf.Module); err != nil {
			t.Fatal(err)
		}
		mod, err := codegen.Unmarshal(&buf, c.TypeEnv)
		if err != nil {
			t.Fatal(err)
		}
		entry := fmt.Sprintf("f%d_%s", instances, mod.Funcs[0].Name)
		for _, f := range mod.Funcs {
			f.Name = fmt.Sprintf("f%d_%s", instances, f.Name)
		}
		src, err := codegen.EmitC(mod, c.TypeEnv)
		if errors.Is(err, codegen.ErrNoCSpelling) {
			return
		}
		if err != nil {
			t.Errorf("%s: %v", expr.InputForm(fn), err)
			return
		}
		instances++
		if unit.Len() == 0 {
			unit.WriteString(codegen.InlineCRuntime(src))
		} else {
			_, body, _ := strings.Cut(src, "#include \"wolfrt.h\"")
			_, body, _ = strings.Cut(body, "\n")
			unit.WriteString(body)
		}
		var walk func(args []any, cargs []string)
		walk = func(args []any, cargs []string) {
			if i := len(args); i < len(sig.Params) {
				for _, p := range samplePoints[sig.Params[i]] {
					v, ok := runtime.Unbox(parser.MustParse(p), sig.Params[i])
					if !ok {
						t.Fatalf("sample point %s does not unbox as %s", p, sig.Params[i])
					}
					walk(append(args, v), append(cargs, cLiteral(v)))
				}
				return
			}
			want, threw := callScalar(s, args)
			if threw {
				return
			}
			call := fmt.Sprintf("%s(%s)", entry, strings.Join(cargs, ", "))
			switch sig.Ret {
			case types.TComplex:
				fmt.Fprintf(&main, "\t{ double complex z = %s; printf(\"%%.17g %%.17g\\n\", creal(z), cimag(z)); }\n", call)
			case types.TReal64:
				fmt.Fprintf(&main, "\tprintf(\"%%.17g\\n\", %s);\n", call)
			default:
				fmt.Fprintf(&main, "\tprintf(\"%%lld\\n\", (long long)%s);\n", call)
			}
			calls = append(calls, cScalarCall{fmt.Sprintf("%s[%s] (native %s)", name, strings.Join(cargs, ", "), d.Native), sig.Ret, want})
		}
		walk(nil, nil)
	})
	if instances < 100 || len(calls) < 1000 {
		t.Fatalf("only %d instances and %d calls: the walk is not reaching the standard library", instances, len(calls))
	}
	// No sample point is NaN, so the complex power's NaN bases are called
	// directly: at a negative power they stay NaN, where an overflowing
	// finite base gives 0.
	for _, b := range []struct {
		c string
		v complex128
	}{{"(NAN + 0.0*I)", complex(math.NaN(), 0)}, {"(1.0 + NAN*I)", complex(1, math.NaN())}} {
		for _, n := range []int64{-2, math.MinInt64} {
			fmt.Fprintf(&main, "\t{ double complex z = wolfrt_power_complex_int(%s, %s); printf(\"%%.17g %%.17g\\n\", creal(z), cimag(z)); }\n", b.c, cLiteral(n))
			calls = append(calls, cScalarCall{fmt.Sprintf("wolfrt_power_complex_int(%s, %s)", b.c, cLiteral(n)), types.TComplex, runtime.PowCInt(b.v, n)})
		}
	}
	dir := t.TempDir()
	cpath := filepath.Join(dir, "scalars.c")
	// Line-buffered, so that a call that stops the program leaves every
	// earlier result printed.
	full := unit.String() + "\n#include <stdio.h>\nint main(void) {\n\tsetvbuf(stdout, NULL, _IOLBF, 0);\n" +
		main.String() + "\treturn 0;\n}\n"
	if err := os.WriteFile(cpath, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "scalars")
	if out, err := exec.Command(cc, "-std=c11", "-O1", "-Wall", "-Werror", "-o", bin, cpath, "-lm").CombinedOutput(); err != nil {
		t.Fatalf("cc: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).Output()
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if err != nil || len(lines) != len(calls) {
		t.Fatalf("the C program printed %d of %d results (%v), stopping at %s", len(lines), len(calls), err, calls[min(len(lines), len(calls)-1)].what)
	}
	// Results pinned besides agreeing: a negative power whose positive one
	// overflows is 0 in both backends (NaN before).
	pinned := map[string]string{
		"Power[(1e+00 + -1e+00*I), INT64_MIN] (native power_complex_int)": "0 0",
	}
	for i, call := range calls {
		if !cAgrees(lines[i], call.ret, call.want) {
			t.Errorf("%s: C = %s, runtime table %v", call.what, lines[i], call.want)
		}
		if want, ok := pinned[call.what]; ok {
			if lines[i] != want {
				t.Errorf("%s: C = %s, want %s", call.what, lines[i], want)
			}
			delete(pinned, call.what)
		}
	}
	for what := range pinned {
		t.Errorf("no call %s was compared", what)
	}
	t.Logf("%d scalar instances, %d calls compared", instances, len(calls))
}

// callScalar applies a runtime table function and reports whether it threw.
func callScalar(s *runtime.Scalar, args []any) (v any, threw bool) {
	defer func() {
		if _, ok := recover().(*runtime.Exception); ok {
			threw = true
		}
	}()
	return s.Call(args), false
}

// cLiteral spells a sample point in C.
func cLiteral(v any) string {
	switch x := v.(type) {
	case int64:
		if x == math.MinInt64 {
			return "INT64_MIN"
		}
		return fmt.Sprintf("INT64_C(%d)", x)
	case float64:
		return strconv.FormatFloat(x, 'e', -1, 64)
	case complex128:
		return fmt.Sprintf("(%s + %s*I)", strconv.FormatFloat(real(x), 'e', -1, 64), strconv.FormatFloat(imag(x), 'e', -1, 64))
	case bool:
		return strconv.FormatBool(x)
	}
	panic(fmt.Sprintf("no C literal for %T", v))
}

// cAgrees compares a line the C program printed with the Go result: integers
// and booleans exactly, reals and complexes as agree does.
func cAgrees(line string, ret types.Type, want any) bool {
	switch w := want.(type) {
	case int64:
		return line == strconv.FormatInt(w, 10)
	case bool:
		return line == map[bool]string{false: "0", true: "1"}[w]
	case float64:
		got, err := strconv.ParseFloat(strings.Replace(line, "-nan", "nan", 1), 64)
		return err == nil && agree(complex(got, 0), complex(w, 0))
	case complex128:
		f := strings.Fields(strings.ReplaceAll(line, "-nan", "nan"))
		if len(f) != 2 {
			return false
		}
		re, err1 := strconv.ParseFloat(f[0], 64)
		im, err2 := strconv.ParseFloat(f[1], 64)
		return err1 == nil && err2 == nil && agree(complex(re, im), w)
	}
	return false
}
