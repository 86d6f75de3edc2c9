package core

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"wolfc/internal/parser"
	"wolfc/internal/runtime"
)

// ConstantArray is one fill primitive in the TWIR; the closure backend and
// the C backend must agree on it for a zero and a non-zero fill value (the
// zero case skips the fill), rank 1 and rank 2.
func TestCrossBackendConstantArray(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	c := newCompiler()
	for _, fill := range []string{"0", "7", "0.", "2.5"} {
		zero, acc := "0", "s*3 + "
		if strings.Contains(fill, ".") {
			zero, acc = "0.", "s*0.5 + "
		}
		for _, src := range []string{
			fmt.Sprintf(`Function[{Typed[n, "MachineInteger"]},
				Module[{v = ConstantArray[%s, n], s = %s, i = 1},
					v[[2]] = v[[2]] + 5;
					While[i <= n, s = %sv[[i]]; i++];
					s + Length[v]]]`, fill, zero, acc),
			fmt.Sprintf(`Function[{Typed[n, "MachineInteger"]},
				Module[{m = ConstantArray[%s, {n, n + 1}], s = %s, i = 1, j = 1},
					m[[2, 1]] = m[[2, 1]] + 5;
					While[i <= n, j = 1; While[j <= n + 1, s = %sm[[i, j]]; j++]; i++];
					s + Length[m]]]`, fill, zero, acc),
		} {
			ccf, err := c.FunctionCompileRequest(parser.MustParse(src), CompileRequest{VerifyEach: true})
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, src)
			}
			const n = 4
			out := ccf.CallRaw(int64(n))
			native := fmt.Sprint(out)
			format := `"%lld\n", (long long)`
			if _, isReal := out.(float64); isReal {
				format = `"%.17g\n", `
			}
			lines := runCBackend(t, ccf, fmt.Sprintf("int main(void) { printf(%sMain(INT64_C(%d))); return 0; }\n", format, n))
			if len(lines) != 1 {
				t.Fatalf("C backend printed %q", lines)
			}
			if got, _ := strconv.ParseFloat(lines[0], 64); fmt.Sprint(got) != fmt.Sprint(mustFloat(native)) {
				t.Errorf("C = %s, closure = %s\n%s", lines[0], native, src)
			}
		}
	}
}

func mustFloat(s string) float64 {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(err)
	}
	return f
}

// The Part/SetPart edge indices on the C backend: for every index the
// closure backend accepts, the C backend computes the same value; every index
// it rejects with the Part range exception the C backend rejects too, fatally,
// naming Part.
func TestCrossBackendPartEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	c := newCompiler()
	type prog struct {
		src  string
		args [][]int64
	}
	var one, two [][]int64
	for _, a := range partEdgeArgs(false) {
		k, _ := strconv.ParseInt(a[1], 10, 64)
		one = append(one, []int64{k})
	}
	for _, a := range partEdgeArgs(true) {
		i, _ := strconv.ParseInt(a[1], 10, 64)
		j, _ := strconv.ParseInt(a[2], 10, 64)
		two = append(two, []int64{i, j})
	}
	for _, p := range []prog{
		{fmt.Sprintf(`Function[{Typed[k, "MachineInteger"]},
			Module[{v = ConstantArray[0, %d], i = 1, s = 0},
				While[i <= %d, v[[i]] = 10*i; i++];
				v[[k]] = v[[k]] + v[[-k]] + 1;
				i = 1;
				While[i <= %d, s = s*7 + v[[i]]; i++];
				s + v[[k]]]]`, partEdgeN, partEdgeN, partEdgeN), one},
		{fmt.Sprintf(`Function[{Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]},
			Module[{m = ConstantArray[1, {%d, %d}], r = 1, q = 1, s = 0},
				While[r <= %d, q = 1; While[q <= %d, m[[r, q]] = 10*r + q; q++]; r++];
				m[[i, j]] = m[[i, j]]*2 + m[[1, 1]];
				r = 1;
				While[r <= %d, q = 1; While[q <= %d, s = s*7 + m[[r, q]]; q++]; r++];
				s + m[[i, j]]]]`, partEdgeRows, partEdgeCols, partEdgeRows, partEdgeCols, partEdgeRows, partEdgeCols), two},
	} {
		ccf, err := c.FunctionCompile(parser.MustParse(p.src))
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, p.src)
		}
		cargs := "atoll(argv[1])"
		if len(p.args[0]) == 2 {
			cargs += ", atoll(argv[2])"
		}
		bin := buildCBackend(t, ccf, "#include <stdlib.h>\nint main(int argc, char **argv) { (void)argc; "+
			"printf(\"%lld\\n\", (long long)Main("+cargs+")); return 0; }\n")
		for _, args := range p.args {
			// Closure backend: a value, or the range exception.
			raw := make([]any, len(args))
			strs := make([]string, len(args))
			for i, a := range args {
				raw[i], strs[i] = a, fmt.Sprint(a)
			}
			want, rejected := int64(0), false
			func() {
				defer func() {
					if r := recover(); r != nil {
						exc, ok := r.(*runtime.Exception)
						if !ok || exc.Kind != runtime.ExcPartRange {
							panic(r)
						}
						rejected = true
					}
				}()
				want = ccf.CallRaw(raw...).(int64)
			}()
			cout, cerr := exec.Command(bin, strs...).CombinedOutput()
			switch {
			case rejected:
				if cerr == nil || !strings.Contains(string(cout), "Part") {
					t.Errorf("%v: C should die naming Part, got %q (%v)", args, cout, cerr)
				}
			case cerr != nil || strings.TrimSpace(string(cout)) != fmt.Sprint(want):
				t.Errorf("%v: C = %q (%v), closure = %d", args, cout, cerr, want)
			}
		}
	}
}

// An If with no else arm whose value is unused: the value is a phi joining
// Null with a Real64, which lowering deletes, so at every level both
// backends compile the program and compute the same answer.
func TestCrossBackendUnusedIfValue(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	const src = `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[c, "Boolean"]},
		Module[{w = v, s = 0.}, If[c, w[[1]] = 2.; s = w[[1]]]; s + v[[1]]]]`
	for level := 0; level <= 2; level++ {
		c := newCompiler()
		c.Options.OptimizationLevel = level
		ccf, err := c.FunctionCompile(parser.MustParse(src))
		if err != nil {
			t.Fatalf("O%d: %v", level, err)
		}
		bin := buildCBackend(t, ccf, `#include <string.h>
int main(int argc, char **argv) {
	(void)argc;
	wolfrt_tensor *v = wolfrt_tensor_new(WOLFRT_KR64, 1, 2, 0);
	((double *)v->data)[0] = 1.;
	((double *)v->data)[1] = 2.;
	printf("%.17g\n", Main(v, strcmp(argv[1], "True") == 0));
	return 0;
}
`)
		for _, cond := range []bool{true, false} {
			want := 1.
			if cond {
				want = 3. // w[[1]] = 2. writes a copy of v
			}
			v := runtime.NewTensor(runtime.KR64, 2)
			v.F[0], v.F[1] = 1, 2
			if got := ccf.CallRaw(v, cond); got != want || v.F[0] != 1 {
				t.Errorf("O%d c=%v: closure backend = %v (v = %v), want %v", level, cond, got, v.F, want)
			}
			arg := "False"
			if cond {
				arg = "True"
			}
			out, err := exec.Command(bin, arg).Output()
			if got := strings.TrimSpace(string(out)); err != nil || got != fmt.Sprint(want) {
				t.Errorf("O%d c=%v: C backend = %q (%v), want %v", level, cond, got, err, want)
			}
		}
	}
}
