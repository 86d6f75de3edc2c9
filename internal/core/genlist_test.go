package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"wolfc/internal/parser"
)

// assertCAgrees builds the standalone C export and requires the native
// backend's results.
func assertCAgrees(t *testing.T, ccf *CompiledCodeFunction, args, native []int64, src string) {
	t.Helper()
	var main strings.Builder
	main.WriteString("int main(void) {\n")
	for _, n := range args {
		fmt.Fprintf(&main, "\tprintf(\"%%lld\\n\", (long long)Main(INT64_C(%d)));\n", n)
	}
	main.WriteString("\treturn 0;\n}\n")
	lines := runCBackend(t, ccf, main.String())
	if len(lines) != len(args) {
		t.Fatalf("C backend printed %d lines, want %d\n%s", len(lines), len(args), src)
	}
	for i, line := range lines {
		got, err := strconv.ParseInt(line, 10, 64)
		if err != nil || got != native[i] {
			t.Fatalf("C(%d) = %q (%v), native = %d\n%s", args[i], line, err, native[i], src)
		}
	}
}

// genListProgram builds a random list-pipeline program over parameter n:
// construct a vector, push it through random structural transforms, and
// fold to a scalar checksum so agreement is exact. Transforms are chosen
// from operations every backend implements.
func genListProgram(rng *rand.Rand) string {
	var steps []string
	nSteps := 1 + rng.Intn(4)
	for i := 0; i < nSteps; i++ {
		k := rng.Intn(5) + 1
		switch rng.Intn(8) {
		case 0:
			steps = append(steps, "w = Reverse[w]")
		case 1:
			steps = append(steps, fmt.Sprintf("w = Join[w, Take[w, Min[%d, Length[w]]]]", k))
		case 2:
			steps = append(steps, fmt.Sprintf("If[Length[w] > %d, w = Drop[w, %d]]", k, k))
		case 3:
			steps = append(steps, fmt.Sprintf("w = Append[w, Mod[Total[w], %d]]", 97+k))
		case 4:
			steps = append(steps, fmt.Sprintf("w = Prepend[w, %d]", k))
		case 5:
			steps = append(steps, "w = Sort[w]")
		case 6:
			steps = append(steps, "w = Accumulate[Map[Function[{x}, Mod[x, 1009]], w]]")
		default:
			steps = append(steps, fmt.Sprintf("w = Map[Function[{x}, Mod[x*%d + 1, 1009]], w]", k))
		}
	}
	return fmt.Sprintf(`Function[{Typed[n, "MachineInteger"]},
		Module[{w = Table[Mod[i*13 + 7, 101], {i, 1, n + 2}], s = 0, i = 1},
			%s;
			While[i <= Length[w], s = Mod[s*31 + w[[i]], 1000003]; i++];
			s*1000 + Length[w]]]`,
		strings.Join(steps, ";\n\t\t\t"))
}

// Random list pipelines through every pass-pipeline configuration: the
// structural macros and the Sort library impl must survive -O0, forced
// copies, and both inlining extremes.
func TestOptimizationSoundnessListPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	args := []int64{1, 6, 13}
	for trial := 0; trial < 6; trial++ {
		src := genListProgram(rng)
		results := map[string][]int64{}
		for name, opts := range optVariants() {
			c := newCompiler()
			c.Options = opts
			ccf, err := c.FunctionCompile(parser.MustParse(src))
			if err != nil {
				t.Fatalf("trial %d: %s: %v\n%s", trial, name, err, src)
			}
			out := make([]int64, len(args))
			for i, n := range args {
				out[i] = ccf.CallRaw(n).(int64)
			}
			results[name] = out
		}
		want := results["default"]
		for name, got := range results {
			for i := range args {
				if got[i] != want[i] {
					t.Fatalf("trial %d: %s(%d) = %d, default = %d\n%s",
						trial, name, args[i], got[i], want[i], src)
				}
			}
		}
	}
}

// The same random pipelines on both backends (native, C).
func TestCrossBackendRandomListPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles C programs")
	}
	rng := rand.New(rand.NewSource(9090))
	c := newCompiler()
	args := []int64{2, 7, 12}
	for trial := 0; trial < 5; trial++ {
		src := genListProgram(rng)
		ccf, err := c.FunctionCompile(parser.MustParse(src))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		native := make([]int64, len(args))
		for i, n := range args {
			native[i] = ccf.CallRaw(n).(int64)
		}
		assertCAgrees(t, ccf, args, native, src)
	}
}
