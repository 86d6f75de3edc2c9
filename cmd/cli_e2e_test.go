package cmd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end tests of the command-line tools: each binary is built once and
// driven the way a user would drive it.

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "wolfc-cli")
	if err != nil {
		os.Exit(1)
	}
	binDir = dir
	// One go build for all five: -o with a directory names each binary
	// after its package.
	out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./wolfc", "./wolfrepl", "./wolfbench", "./wolfserve", "./patgen").CombinedOutput()
	if err != nil {
		os.Stderr.WriteString("building the tools: " + string(out) + "\n")
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, tool string, stdin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	if stdin != "" {
		cmd.Stdin = strings.NewReader(stdin)
	}
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// runSplit is run with stdout and stderr returned apart (wolfrepl prints
// results on one and tiering statistics on the other); the tool must succeed.
func runSplit(t *testing.T, tool, stdin string, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	cmd.Stdin = strings.NewReader(stdin)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, errb.String())
	}
	return out.String(), errb.String()
}

const addOne = `Function[{Typed[arg, "MachineInteger"]}, arg + 1]`

func TestWolfcStages(t *testing.T) {
	cases := []struct{ stage, wantSub string }{
		{"ast", "Typed[arg"},
		{"wir", "Call Plus"},
		{"twir", "Integer64"},
		{"regions", "block start(1), poll"},
		{"c", "int64_t Main(int64_t arg)"},
		{"cexe", "WOLFRT_H"},
	}
	for _, cse := range cases {
		out, err := run(t, "wolfc", "", "-e", addOne, "-stage", cse.stage)
		if err != nil {
			t.Fatalf("stage %s: %v\n%s", cse.stage, err, out)
		}
		if !strings.Contains(out, cse.wantSub) {
			t.Fatalf("stage %s output missing %q:\n%s", cse.stage, cse.wantSub, out)
		}
	}
	// The TWIR has two backends, closure and C; wvm names neither.
	out, err := run(t, "wolfc", "", "-e", addOne, "-stage", "wvm")
	if err == nil || !strings.Contains(out, "unknown stage") {
		t.Fatalf("-stage wvm must exit non-zero naming an unknown stage, got %v:\n%s", err, out)
	}
}

func TestWolfcRun(t *testing.T) {
	out, err := run(t, "wolfc", "", "-e", addOne, "-run", "41")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "42") {
		t.Fatalf("wolfc -run 41 = %q, want 42", out)
	}
}

// With a store attached, -time-passes prints what this invocation paid: the
// whole pipeline behind the key the first time, then key, decode and codegen.
func TestWolfcTimePassesOverAnArtifactStore(t *testing.T) {
	args := []string{"-e", addOne, "-run", "41", "-time-passes", "-artifact-dir", t.TempDir()}
	for i, want := range [][]string{
		{"key", "macro", "infer", "passes", "codegen"},
		{"key", "decode", "codegen"},
	} {
		stdout, stderr := runSplit(t, "wolfc", "", args...)
		if strings.TrimSpace(stdout) != "42" {
			t.Fatalf("run %d printed %q, want 42", i+1, stdout)
		}
		_, table, _ := strings.Cut(stderr, "stage timings:\n")
		table, _, _ = strings.Cut(table, "  total")
		var stages []string
		for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
			stages = append(stages, strings.Fields(line)[0])
		}
		got := strings.Join(stages, " ")
		for _, w := range want {
			if !strings.Contains(" "+got+" ", " "+w+" ") {
				t.Errorf("run %d: stages %q lack %q", i+1, got, w)
			}
		}
		if i == 1 && len(stages) != len(want) {
			t.Errorf("a hit paid for more than key, decode and codegen: %q", got)
		}
	}
}

func TestWolfcRejectsBadProgram(t *testing.T) {
	out, err := run(t, "wolfc", "", "-e", `Function[{Typed[x, "Real64"]}, Nope[x]]`)
	if err == nil {
		t.Fatalf("bad program must exit non-zero, got:\n%s", out)
	}
	if !strings.Contains(out, "Nope") {
		t.Fatalf("error should name the unknown function:\n%s", out)
	}
}

// The cexe stage's output must actually compile and run under cc.
func TestWolfcCexeCompiles(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on PATH")
	}
	src, err := run(t, "wolfc", "", "-e", addOne, "-stage", "cexe")
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	dir := t.TempDir()
	cpath := filepath.Join(dir, "p.c")
	full := src + "\n#include <stdio.h>\nint main(void) { printf(\"%lld\\n\", (long long)Main(41)); return 0; }\n"
	if err := os.WriteFile(cpath, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "p")
	if out, err := exec.Command(cc, "-std=c11", "-o", bin, cpath, "-lm").CombinedOutput(); err != nil {
		t.Fatalf("cc: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).Output()
	if err != nil || strings.TrimSpace(string(out)) != "42" {
		t.Fatalf("cexe binary = %q (%v), want 42", out, err)
	}
}

// No compiled program kills its process (F2): where the closure backend
// throws a numeric exception into the fallback, the standalone C program has
// no interpreter to fall back to and must stop with the runtime's message and
// exit status 1. INT64_MIN / -1 traps in hardware (SIGFPE), and C leaves a
// shift by a negative or too large count undefined, so the runtime tests for
// each before the instruction runs and answers the defined cases as Go does.
func TestWolfcCexeTrapsNotSignals(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on PATH")
	}
	const ops = `Function[{Typed[op, "MachineInteger"], Typed[a, "MachineInteger"], Typed[b, "MachineInteger"]},
		If[op == 0, Quotient[a, b] + Mod[a, b],
			If[op == 1, Mod[a, b],
				If[op == 2, BitShiftLeft[a, b], BitShiftRight[a, b]]]]]`
	src, err := run(t, "wolfc", "", "-e", ops, "-stage", "cexe")
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	dir := t.TempDir()
	cpath := filepath.Join(dir, "p.c")
	full := src + `
#include <stdio.h>
int main(int argc, char **argv) {
	if (argc != 4) return 2;
	printf("%lld\n", (long long)Main(strtoll(argv[1], NULL, 10), strtoll(argv[2], NULL, 10), strtoll(argv[3], NULL, 10)));
	return 0;
}
`
	if err := os.WriteFile(cpath, []byte(full), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "p")
	if out, err := exec.Command(cc, "-std=c11", "-o", bin, cpath, "-lm").CombinedOutput(); err != nil {
		t.Fatalf("cc: %v\n%s", err, out)
	}
	const minInt = "-9223372036854775808"
	for _, c := range []struct {
		op, a, b string
		want     string // the printed result, or the runtime's message when it must stop
		stops    bool
	}{
		{"0", minInt, "-1", "integer overflow in Quotient", true},
		{"0", "-7", "2", "-3", false}, // Quotient -4, Mod 1
		{"0", "7", "-1", "-7", false},
		{"1", minInt, "-1", "0", false},
		{"2", "1", "-1", "negative shift count in BitShiftLeft", true},
		{"2", "1", "64", "integer overflow in BitShiftLeft", true},
		{"2", "1", "63", "integer overflow in BitShiftLeft", true},
		{"2", "0", "200", "0", false},
		{"2", "-1", "63", minInt, false},
		{"3", "1", "-1", "negative shift count in BitShiftRight", true},
		{"3", "-8", "200", "-1", false},
		{"3", "8", "64", "0", false},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, c.op, c.a, c.b)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		switch {
		case c.stops:
			if cmd.ProcessState.ExitCode() != 1 || !strings.Contains(stderr.String(), c.want) {
				t.Errorf("op %s (%s, %s): %v, stderr %q; want exit status 1 with %q", c.op, c.a, c.b, err, stderr.String(), c.want)
			}
		case err != nil || strings.TrimSpace(stdout.String()) != c.want:
			t.Errorf("op %s (%s, %s) = %q (%v, stderr %q), want %s", c.op, c.a, c.b, stdout.String(), err, stderr.String(), c.want)
		}
	}
}

// A scripted interactive session: definitions persist across inputs, both
// compilers are installed, and EOF ends the session cleanly.
func TestReplSession(t *testing.T) {
	session := strings.Join([]string{
		`fib = Function[{n}, If[n < 1, 1, fib[n-1] + fib[n-2]]]`,
		`fib[10]`,
		`cf = FunctionCompile[Function[{Typed[x, "MachineInteger"]}, x*x + 1]]`,
		`cf[6]`,
		`bc = Compile[{{x, _Integer}}, 3*x]`,
		`bc[7]`,
		`1/0`,
		`2 + 2`,
	}, "\n") + "\n"
	out, err := run(t, "wolfrepl", session)
	if err != nil {
		t.Fatalf("repl exited badly: %v\n%s", err, out)
	}
	for _, want := range []string{"Out[2]= 144", "Out[4]= 37", "Out[6]= 21", "Out[8]= 4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("session transcript missing %q:\n%s", want, out)
		}
	}
}

// No program can kill the process by recursing: a promoted definition that
// recurses five million deep used to die of Go's unrecoverable stack
// overflow. Compiled code now throws at its frame-stack limit, tiering hands
// the call back to the interpreter, and the session reports the interpreter's
// own limit and answers the next input.
func TestReplSurvivesRunawayCompiledRecursion(t *testing.T) {
	session := strings.Join([]string{
		`g[n_Integer] := If[n == 0, 0, 1 + g[n - 1]]`,
		`Do[g[10], {i, 200}]`,
		`g[5000000]`,
		`1+1`,
	}, "\n") + "\n"
	out, err := run(t, "wolfrepl", session, "-autocompile", "-autocompile-drain")
	if err != nil {
		t.Fatalf("repl exited badly: %v\n%s", err, out)
	}
	for _, want := range []string{"$RecursionLimit: recursion depth of 4096 exceeded", "Out[4]= 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("session transcript missing %q:\n%s", want, out)
		}
	}
	// It was the compiled tier that recursed: the depth exception is a soft
	// failure, and the eighth retires the code.
	if strings.Contains(out, " 0 compiled dispatches") || !strings.Contains(out, " 8 soft fallbacks") || !strings.Contains(out, " 1 retires") {
		t.Fatalf("stats do not show compiled dispatches, eight depth fallbacks and the retirement:\n%s", out)
	}
}

// Every tiered mode of wolfrepl prints what the interpreter prints (F1). Tiered
// execution promotes hot DownValues to compiled code in the background, first
// to the baseline rung and then to O2; -autocompile-stencil-only pins them to
// the baseline (shapes it cannot hold take the full pipeline) and
// -autocompile-no-stencil goes straight to O2. A threshold of 2 promotes
// everything a corpus defines. The example corpus covers overflow fallback,
// guard misses, redefinition and Clear. The generated pattern corpus mixes
// literal rules, head restrictions, /; guards, list destructuring and repeated
// variables with calls that hit, guard-miss, kind-miss and fall outside the
// compiled fragment; -autocompile-drain makes its tier transitions
// deterministic, so its statistics must show that compiled code was
// dispatched and that guards missed — a differential in which nothing was
// compiled proves nothing.
func TestTierDifferential(t *testing.T) {
	for _, corpus := range []struct {
		name       string
		flags      []string
		dispatches bool
	}{
		{"autocompile", nil, false},
		{"patterns", []string{"-autocompile-drain"}, true},
	} {
		src, err := os.ReadFile(filepath.Join("..", "examples", corpus.name, "corpus.wl"))
		if err != nil {
			t.Fatal(err)
		}
		plain, _ := runSplit(t, "wolfrepl", string(src))
		for _, mode := range []string{"", "-autocompile-stencil-only", "-autocompile-no-stencil"} {
			t.Run(corpus.name+"/tiered"+mode, func(t *testing.T) {
				args := append([]string{"-autocompile", "-autocompile-threshold", "2"}, corpus.flags...)
				if mode != "" {
					args = append(args, mode)
				}
				tiered, stats := runSplit(t, "wolfrepl", string(src), args...)
				if tiered != plain {
					pl, tl := strings.Split(plain, "\n"), strings.Split(tiered, "\n")
					i := 0
					for i < len(pl) && i < len(tl) && pl[i] == tl[i] {
						i++
					}
					t.Fatalf("diverged from the interpreter at line %d:\n interpreter: %q\n tiered:      %q",
						i+1, pl[i:min(i+1, len(pl))], tl[i:min(i+1, len(tl))])
				}
				if corpus.dispatches && (strings.Contains(stats, " 0 compiled dispatches") || strings.Contains(stats, " 0 guard misses")) {
					t.Fatalf("never dispatched compiled code, or never missed a guard: %s", stats)
				}
			})
		}
	}
	// The checked-in pattern corpus is what its generator emits.
	t.Run("patterns/generated", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join("..", "examples", "patterns", "corpus.wl"))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := runSplit(t, "patgen", ""); got != string(want) {
			t.Fatal("examples/patterns/corpus.wl is stale: regenerate it with go run ./cmd/patgen")
		}
	})
}

// wolfbench's Table 1 executable checks must all report ok.
func TestWolfbenchTable1(t *testing.T) {
	out, err := run(t, "wolfbench", "", "-table", "1")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if strings.Count(out, "[ok]") != 10 || strings.Contains(out, "[FAIL]") {
		t.Fatalf("Table 1 checks:\n%s", out)
	}
}
