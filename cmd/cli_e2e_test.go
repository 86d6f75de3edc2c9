package cmd_test

import (
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
	for _, tool := range []string{"wolfc", "wolfrepl", "wolfbench"} {
		out, err := exec.Command("go", "build", "-o",
			filepath.Join(dir, tool), "./"+tool).CombinedOutput()
		if err != nil {
			os.Stderr.WriteString("building " + tool + ": " + string(out) + "\n")
			os.RemoveAll(dir)
			os.Exit(1)
		}
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

const addOne = `Function[{Typed[arg, "MachineInteger"]}, arg + 1]`

func TestWolfcStages(t *testing.T) {
	cases := []struct{ stage, wantSub string }{
		{"ast", "Typed[arg"},
		{"wir", "Call Plus"},
		{"twir", "Integer64"},
		{"regions", "block start(1), poll"},
		{"c", "int64_t Main(int64_t arg)"},
		{"cexe", "WOLFRT_H"},
		{"wvm", "WVMFunction"},
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
