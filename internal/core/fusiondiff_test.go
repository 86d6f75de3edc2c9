package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

// Fusion differential harness (ISSUE 2): every program must compute the
// same thing with superinstruction fusion on and off, and with the loop
// optimizations on and off. "unfused" is the purest baseline: one closure
// per TWIR instruction and no loop pipeline at all.

func fuseConfigs() map[string]func(*Compiler) {
	return map[string]func(*Compiler){
		"fused": func(c *Compiler) {}, // defaults: OptLevel 2 + full fusion
		"unfused": func(c *Compiler) {
			c.Options.OptimizationLevel = 1
			c.FuseLevel = codegen.FuseOff
		},
		"loopopt-nofuse": func(c *Compiler) { c.FuseLevel = codegen.FuseOff },
	}
}

// sampleArg synthesizes a deterministic argument for a parameter type.
func sampleArg(ty types.Type) (string, bool) {
	switch t := ty.(type) {
	case *types.Atomic:
		switch t.Name {
		case "MachineInteger", "Integer64", "Integer32", "Integer16", "Integer8",
			"UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32",
			"UnsignedInteger64":
			return "7", true
		case "Real64", "Real32":
			return "1.625", true
		case "ComplexReal64":
			return "Complex[0.25, -0.5]", true
		case "Boolean", "TruthValue":
			return "True", true
		case "String":
			return "\"wolf\"", true
		}
	case *types.Compound:
		if t.Ctor == "Tensor" && len(t.Args) == 2 {
			elem, _ := t.Args[0].(*types.Atomic)
			rank, _ := t.Args[1].(*types.Literal)
			if elem == nil || rank == nil {
				return "", false
			}
			switch {
			case rank.Value == 1 && strings.HasPrefix(elem.Name, "Real"):
				return "{1.5, -2.25, 3.75, 0.5, 2.}", true
			case rank.Value == 1 && strings.Contains(elem.Name, "Integer"):
				return "{3, 1, 4, 1, 5, 9}", true
			case rank.Value == 1 && elem.Name == "ComplexReal64":
				return "{Complex[1., 2.], Complex[-0.5, 0.25]}", true
			case rank.Value == 2 && strings.HasPrefix(elem.Name, "Real"):
				return "{{1.5, 2.}, {3., -0.25}}", true
			case rank.Value == 2 && strings.Contains(elem.Name, "Integer"):
				return "{{1, 2}, {3, 4}}", true
			}
		}
	}
	return "", false
}

// runConfig compiles src under a configuration and applies it to the given
// argument expressions with a freshly seeded kernel RNG, so programs using
// RandomReal draw identical streams in every configuration.
func runConfig(t *testing.T, cfg func(*Compiler), src string, args []string) (string, error) {
	t.Helper()
	c := newCompiler()
	cfg(c)
	c.Kernel.Seed(7)
	ccf, err := c.FunctionCompile(parser.MustParse(src))
	if err != nil {
		return "", fmt.Errorf("compile: %w", err)
	}
	ex := make([]expr.Expr, len(args))
	for i, a := range args {
		ex[i] = parser.MustParse(a)
	}
	out, err := ccf.Apply(ex)
	if err != nil {
		return "", fmt.Errorf("apply: %w", err)
	}
	return expr.InputForm(out), nil
}

// diffOverConfigs asserts every configuration agrees (on the result, or on
// failing the same way).
func diffOverConfigs(t *testing.T, label, src string, args []string) {
	t.Helper()
	type outcome struct {
		out string
		err error
	}
	results := map[string]outcome{}
	for name, cfg := range fuseConfigs() {
		out, err := runConfig(t, cfg, src, args)
		results[name] = outcome{out, err}
	}
	want := results["fused"]
	for name, got := range results {
		if (got.err == nil) != (want.err == nil) {
			t.Errorf("%s: config %s error=%v, fused error=%v\n%s", label, name, got.err, want.err, src)
			continue
		}
		if got.err == nil && got.out != want.out {
			t.Errorf("%s: config %s = %s, fused = %s\n%s", label, name, got.out, want.out, src)
		}
	}
}

// exampleFunctionSources extracts every Typed-Function literal embedded in
// the example programs (the paper's artifact corpus).
func exampleFunctionSources(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example programs found: %v", err)
	}
	rawLit := regexp.MustCompile("`[^`]*`")
	srcs := map[string]string{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, lit := range rawLit.FindAllString(string(data), -1) {
			body := strings.Trim(lit, "`")
			if !strings.Contains(body, "Function[{Typed[") {
				continue
			}
			// Only self-contained literals that parse as a single Function
			// expression (examples also embed macro installs and snippets).
			trimmed := strings.TrimSpace(body)
			if !strings.HasPrefix(trimmed, "Function[") {
				continue
			}
			if _, err := parser.Parse(trimmed); err != nil {
				continue
			}
			srcs[fmt.Sprintf("%s#%d", filepath.Base(filepath.Dir(f)), i)] = trimmed
		}
	}
	if len(srcs) == 0 {
		t.Fatal("extracted no example Function programs")
	}
	return srcs
}

func TestFusionDifferentialExamples(t *testing.T) {
	for label, src := range exampleFunctionSources(t) {
		// Determine the signature from one probe compile; skip programs that
		// need installs or unsupported parameter kinds.
		c := newCompiler()
		ccf, err := c.FunctionCompile(parser.MustParse(src))
		if err != nil {
			continue
		}
		args := make([]string, 0, len(ccf.ParamTypes))
		ok := true
		for _, pt := range ccf.ParamTypes {
			a, supported := sampleArg(pt)
			if !supported {
				ok = false
				break
			}
			args = append(args, a)
		}
		if !ok {
			continue
		}
		diffOverConfigs(t, label, src, args)
	}
}

// The pass-test corpus: loop-heavy programs covering LICM, strength
// reduction, Part load/store fusion, phi-edge fusion, floats, complex
// iteration, and mutation-under-aliasing.
var fusionDiffCorpus = []struct {
	label string
	src   string
	args  []string
}{
	{"scalar-madd", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i = i + 1]; s]]`,
		[]string{"1000"}},
	{"licm-float", `Function[{Typed[n, "MachineInteger"], Typed[x, "Real64"]},
		Module[{s = 0., i = 1}, While[i <= n, s = s + x*x + i*0.5; i = i + 1]; s]]`,
		[]string{"64", "1.25"}},
	{"strength-reduction", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*12; i = i + 1]; s]]`,
		[]string{"513"}},
	{"nested-loops", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1, j = 1},
			While[i <= n, j = 1; While[j <= n, s = Mod[s + i*j, 100003]; j++]; i++];
			s]]`,
		[]string{"40"}},
	{"part-load-store", `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0, n], s = 0, i = 1},
			While[i <= n, v[[i]] = Mod[i*i + 3, 97]; i++];
			i = 1;
			While[i <= n, s = Mod[s*31 + v[[i]], 100003]; i++];
			s]]`,
		[]string{"200"}},
	{"aliased-write", `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[1, 5], w, s = 0, i = 1},
			w = v; w[[1]] = n;
			While[i <= 5, s = s*100 + v[[i]]*10 + w[[i]]; i++];
			s]]`,
		[]string{"9"}},
	{"matrix-fill", `Function[{Typed[n, "MachineInteger"]},
		Module[{m = ConstantArray[0, {n, n}], i = 1, j = 1, s = 0},
			While[i <= n, j = 1; While[j <= n, m[[i, j]] = i*10 + j*j; j++]; i++];
			i = 1;
			While[i <= n, s = s + m[[i, i]]*3 - 1; i++];
			s]]`,
		[]string{"8"}},
	{"mandelbrot-step", `Function[{Typed[pixel0, "ComplexReal64"]},
		Module[{iters = 1, maxIters = 100, pixel = pixel0},
			While[iters < maxIters && Abs[pixel] < 2.,
				pixel = pixel^2 + pixel0;
				iters++];
			iters]]`,
		[]string{"Complex[-0.75, 0.1]"}},
	{"real-vector-dot", `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0., n], w = ConstantArray[0., n], i = 1},
			While[i <= n, v[[i]] = 1./i; w[[i]] = 1.*i; i++];
			Dot[v, w]]]`,
		[]string{"64"}},
	{"overflow-fallback", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 1, i = 1}, While[i <= n, s = s*3; i = i + 1]; s]]`,
		[]string{"60"}}, // 3^60 overflows int64: both modes take the F2 fallback
	{"random-stream", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0., i = 1},
			While[i <= n, s = s + RandomReal[{0., 1.}]*i; i = i + 1];
			s]]`,
		[]string{"50"}},
}

func TestFusionDifferentialCorpus(t *testing.T) {
	for _, tc := range fusionDiffCorpus {
		diffOverConfigs(t, tc.label, tc.src, tc.args)
	}
}

func TestFusionDifferentialRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	args := []string{"0", "1", "7", "33"}
	for trial := 0; trial < 10; trial++ {
		src := genIntStateProgram(rng)
		for _, a := range args {
			diffOverConfigs(t, fmt.Sprintf("rand-%d", trial), src, []string{a})
		}
	}
}

// TestFusionAbortDuringLoop: abort polling must keep working between fused
// superinstructions — a kernel abort interrupts a fused hot loop promptly
// and surfaces as $Aborted.
func TestFusionAbortDuringLoop(t *testing.T) {
	c := newCompiler() // defaults: loop opts + full fusion
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n, s = Mod[s + i*i, 100003]; i = i + 1];
			s]]`)
	done := make(chan string, 1)
	go func() {
		out, err := ccf.Apply([]expr.Expr{expr.FromInt64(int64(1) << 40)})
		if err != nil {
			done <- "error: " + err.Error()
			return
		}
		done <- expr.InputForm(out)
	}()
	time.Sleep(50 * time.Millisecond)
	c.Kernel.Abort()
	select {
	case got := <-done:
		if got != "$Aborted" {
			t.Fatalf("aborted fused loop returned %q, want $Aborted", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fused loop did not notice the abort: polling was fused away")
	}
	c.Kernel.ClearAbort()
}
