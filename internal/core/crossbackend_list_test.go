package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"wolfc/internal/parser"
)

// List pipelines across the native JIT and the C backend:
// structural operations and the WL-source Sort implementation must agree
// everywhere, folded to a scalar checksum for exact comparison.
func TestCrossBackendListPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	c := newCompiler()
	srcs := []string{
		// Reverse/Join/Take/Drop plumbing.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{v = Table[Mod[i*7, 13], {i, 1, n}], w, s = 0, i = 1},
				w = Join[Reverse[v], Take[v, Quotient[n, 2]]];
				w = Drop[w, 1];
				While[i <= Length[w], s = Mod[s*31 + w[[i]], 100003]; i++];
				s]]`,
		// Sort (WL-source impl) + Accumulate + Span.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{v = Table[Mod[i*i, 17], {i, 1, n}], w, s = 0, i = 1},
				w = Accumulate[Sort[v]];
				w = w[[2 ;; -1]];
				While[i <= Length[w], s = Mod[s*31 + w[[i]], 100003]; i++];
				s]]`,
		// Append/Prepend/First/Last/Count.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{v = Table[Mod[i, 5], {i, 1, n}], w},
				w = Prepend[Append[v, 99], -99];
				First[w]*1000000 + Last[w]*1000 + Count[w, 2] + Total[w]]]`,
	}
	args := []int64{4, 9, 16}
	for ti, src := range srcs {
		ccf, err := c.FunctionCompile(parser.MustParse(src))
		if err != nil {
			t.Fatalf("program %d: %v", ti, err)
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
		for i, line := range lines {
			got, err := strconv.ParseInt(line, 10, 64)
			if err != nil || got != native[i] {
				t.Fatalf("program %d: C(%d) = %q (%v), native = %d", ti, args[i], line, err, native[i])
			}
		}
	}
}
