package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"wolfc/internal/parser"
)

// Cross-backend smoke test for the loop-optimization pipeline (ISSUE 2):
// the TWIR reaching the backends now contains preheaders, hoisted
// instructions, and strength-reduced derived induction variables. The
// exported C translation unit consumes that IR structurally, so it must
// still compile it and agree with the native closure backend bit-for-bit on
// integer programs.
func TestCrossBackendLoopOptCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	corpus := []string{
		// LICM target: invariant n*n-style computation kept in place
		// (throwing) next to hoistable float work lowered to ints via Floor.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{s = 0, i = 1},
				While[i <= n, s = Mod[s + i*i + n*3, 100003]; i = i + 1];
				s]]`,
		// Strength reduction: induction multiply by a constant.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{s = 0, i = 1},
				While[i <= n, s = Mod[s + i*12, 100003]; i = i + 1];
				s]]`,
		// Nested loops with derived IVs in both.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{s = 0, i = 1, j = 1},
				While[i <= n,
					j = 1;
					While[j <= n, s = Mod[s + j*8 + i*5, 100003]; j = j + 1];
					i = i + 1];
				s]]`,
		// Part store/load loop: preheader + fused-form TWIR over tensors.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{v = ConstantArray[0, n], s = 0, i = 1},
				While[i <= n, v[[i]] = Mod[i*i + 7, 97]; i++];
				i = 1;
				While[i <= n, s = Mod[s*31 + v[[i]], 100003]; i++];
				s]]`,
		// Rank-2 fill and trace.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{m = ConstantArray[0, {n, n}], i = 1, j = 1, s = 0},
				While[i <= n, j = 1; While[j <= n, m[[i, j]] = i*10 + j; j++]; i++];
				i = 1;
				While[i <= n, s = s + m[[i, i]]; i++];
				s]]`,
	}
	c := newCompiler()
	args := []int64{0, 1, 5, 23}
	for ci, src := range corpus {
		ccf, err := c.FunctionCompile(parser.MustParse(src))
		if err != nil {
			t.Fatalf("corpus %d: compile: %v\n%s", ci, err, src)
		}

		native := make([]int64, len(args))
		for i, n := range args {
			native[i] = ccf.CallRaw(n).(int64)
		}

		var main strings.Builder
		main.WriteString("int main(void) {\n")
		for _, n := range args {
			fmt.Fprintf(&main, "\tprintf(\"%%lld\\n\", (long long)Main(INT64_C(%d)));\n", n)
		}
		main.WriteString("\treturn 0;\n}\n")
		lines := runCBackend(t, ccf, main.String())
		if len(lines) != len(args) {
			t.Fatalf("corpus %d: C backend printed %d lines, want %d", ci, len(lines), len(args))
		}
		for i, line := range lines {
			got, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				t.Fatalf("corpus %d: C output %q: %v", ci, line, err)
			}
			if got != native[i] {
				t.Fatalf("corpus %d: C(%d) = %d, native = %d\n%s",
					ci, args[i], got, native[i], src)
			}
		}
	}
}
