package cmd_test

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wolfc/internal/bench"
	"wolfc/internal/core"
	"wolfc/internal/kernel"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./cmd -run Golden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// TestGoldenStages pins the exact wolfc output for the paper's §A.6 addOne
// example at each printable stage of the pipeline.
func TestGoldenStages(t *testing.T) {
	for _, stage := range []string{"ast", "wir", "twir"} {
		t.Run(stage, func(t *testing.T) {
			out, err := run(t, "wolfc", "", "-e", addOne, "-stage", stage)
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			checkGolden(t, "addone_"+stage, out)
		})
	}
}

// TestGoldenParseError pins the positioned parse diagnostic, including the
// file name when the source comes from -file.
func TestGoldenParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.wl")
	src := "Function[{Typed[arg, \"MachineInteger\"]},\n  arg +\n]"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "wolfc", "", "-file", path, "-stage", "ast")
	if err == nil {
		t.Fatalf("parse error must exit non-zero:\n%s", out)
	}
	// The file path is temp-dir dependent; strip the directory before
	// comparing.
	got := strings.ReplaceAll(out, dir+string(os.PathSeparator), "")
	checkGolden(t, "parse_error", got)
}

// TestGoldenTypeError pins the positioned type diagnostic for an overload
// failure inside the function body.
func TestGoldenTypeError(t *testing.T) {
	args := []string{"-e", "Function[{Typed[arg, \"MachineInteger\"]},\n  arg + \"one\"]", "-stage", "twir"}
	// With a store attached the compile goes through the cache, which expands
	// the macros to find its key and hands the expansion — and the span table
	// it carried the positions into — to the compile: same diagnostic.
	for _, extra := range [][]string{nil, {"-artifact-dir", t.TempDir()}} {
		out, err := run(t, "wolfc", "", append(args, extra...)...)
		if err == nil {
			t.Fatalf("type error must exit non-zero:\n%s", out)
		}
		checkGolden(t, "type_error", out)
	}
}

// TestGoldenHistogramTWIR pins the O2 TWIR of the benchmark's histogram
// program: ConstantArray is one list_fill, and the loop body's Part
// assignment hands its tensor's reference on, so nothing in the loop touches
// a reference count.
func TestGoldenHistogramTWIR(t *testing.T) {
	out, err := run(t, "wolfc", "",
		"-file", filepath.Join("..", "benchmark", "programs", "histogram.wl"), "-O", "2", "-stage", "twir")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	checkGolden(t, "histogram_twir", out)
	_, loop, ok := strings.Cut(out, "while_head")
	if !ok {
		t.Fatalf("no loop in:\n%s", out)
	}
	loop, _, _ = strings.Cut(loop, "while_exit(")
	if strings.Contains(loop, "memory_") || strings.Contains(out, "setpart_unsafe") {
		t.Errorf("histogram loop still does per-iteration bookkeeping:\n%s", out)
	}
}

// TestGoldenRegions pins `wolfc -stage regions` — the tree of loops, Ifs and
// sequences the closure backend runs a function as (ISSUE 19) — for the
// benchmark's blur, whose pixel is one sum node in a loop in a loop, and for
// qsort with its helper: an If in a loop, and recursive calls after it. The
// helper is a declaration the wolfc command line cannot make, so that module
// is compiled here and printed through the export wolfc itself calls.
func TestGoldenRegions(t *testing.T) {
	out, err := run(t, "wolfc", "",
		"-file", filepath.Join("..", "benchmark", "programs", "blur.wl"), "-O", "2", "-stage", "regions")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	checkGolden(t, "blur_regions", out)
	for want, why := range map[string]string{
		"sum %":       "the nine-term stencil is one sum node",
		"loop while_": "the Whiles are loops",
		", break":     "a While leaves by a break",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("blur's regions lack %q (%s):\n%s", want, why, out)
		}
	}
	for _, s := range bench.CompiledSources() {
		if s.Name != "qsort" {
			continue
		}
		k := kernel.New()
		k.Out = io.Discard
		c := core.NewCompiler(k)
		c.Options.OptimizationLevel = 2
		s.Declare(c.TypeEnv)
		ccf, err := c.FunctionCompile(s.Fn)
		if err != nil {
			t.Fatal(err)
		}
		out, err := ccf.ExportString("Regions")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "qsort_regions", out)
	}
}

// TestGoldenExplain pins `wolfc -explain` at each optimisation level: the
// pipeline tools see, pass by pass and by name.
func TestGoldenExplain(t *testing.T) {
	for _, level := range []string{"0", "1", "2"} {
		t.Run("O"+level, func(t *testing.T) {
			out, err := run(t, "wolfc", "", "-O", level, "-explain")
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			checkGolden(t, "explain_O"+level, out)
		})
	}
}
