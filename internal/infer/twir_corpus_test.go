package infer_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wolfc/internal/infer"
	"wolfc/internal/testcorpus"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// The golden TWIR corpus (ISSUE 18): what inference answers — the type of
// every value and the overload recorded on every call — for every source the
// evaluation compiles, taken at the commit before the solver was rewritten.
// Anything that changes how inference searches must leave this file alone.

var updateGolden = flag.Bool("update", false, "rewrite testdata/twir.golden from this build's inference")

// dump renders a typed module with, under each function, the overload and
// instantiated type inference recorded on its calls. An overload is named
// by its position among the declarations Lookup returns, which is what the
// solver's ranking is defined on.
func dump(mod *wir.Module, env *types.Env) string {
	var b strings.Builder
	for _, f := range mod.Funcs {
		b.WriteString(f.String())
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if in.Op != wir.OpCall {
					continue
				}
				var notes []string
				if v, ok := in.Prop("overload"); ok {
					def := v.(*types.FuncDef)
					pos := -1
					for i, d := range env.Lookup(def.Name) {
						if d == def {
							pos = i
						}
					}
					notes = append(notes, fmt.Sprintf("overload=%s/%d", def.Name, pos))
				}
				if v, ok := in.Prop("calltype"); ok {
					notes = append(notes, fmt.Sprintf("calltype=%s", v))
				}
				if len(notes) > 0 {
					fmt.Fprintf(&b, "  ; %s %s\n", in.Name(), strings.Join(notes, " "))
				}
			}
		}
	}
	// Hygienic renames carry a process-wide counter (x`h17).
	return hygieneSuffix.ReplaceAllString(b.String(), "`h_")
}

var hygieneSuffix = regexp.MustCompile("`h[0-9]+")

func TestGoldenTWIRCorpus(t *testing.T) {
	var b strings.Builder
	for _, e := range testcorpus.All(t) {
		c := e.Compiler()
		mod, err := e.Untyped(c)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(&b, "=== %s\n", e.Name)
		if err := infer.InferWith(mod, c.TypeEnv, c.Registry); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		// Function resolution infers every Wolfram-source implementation an
		// overload carries, so the dump covers those sub-modules too.
		if err := c.ResolveFunctions(mod); err != nil {
			t.Fatalf("%s: resolve: %v", e.Name, err)
		}
		b.WriteString(dump(mod, c.TypeEnv))
	}
	path := filepath.Join("testdata", "twir.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("TWIR differs from testdata/twir.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("TWIR is a strict prefix of testdata/twir.golden (%d of %d lines)", len(gl), len(wl))
	}
}

// Eager commits are confluent on a well-typed program — a viable set only
// shrinks, and an alternative commits when it is down to one — so the order
// in which the work list is served must not show in the result.
func TestShuffledWorkListSameAnswers(t *testing.T) {
	for _, e := range testcorpus.All(t) {
		c := e.Compiler()
		infer1 := func(run func(mod *wir.Module) error) string {
			mod, err := e.Untyped(c)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if err := run(mod); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			return dump(mod, c.TypeEnv)
		}
		want := infer1(func(mod *wir.Module) error { return infer.InferWith(mod, c.TypeEnv, c.Registry) })
		for seed := int64(1); seed <= 8; seed++ {
			got := infer1(func(mod *wir.Module) error { return infer.InferShuffled(mod, c.TypeEnv, c.Registry, seed) })
			if got != want {
				t.Errorf("%s: work-list order %d changed the types or overloads", e.Name, seed)
			}
		}
	}
}

// The solver's counts repeat exactly, so they can be pinned: these bounds
// sit a little above what the change that introduced the work list measured
// and far below what rescanning every alternative each round cost (the
// number after each bound).
func TestSolverTrialCounts(t *testing.T) {
	bounds := map[string]int{
		"mandelbrot":         1300, // 4009
		"coldstart-horner":   500,  // 2497
		"blur":               700,  // 1777
		"coldstart-convgrid": 450,  // 2178
	}
	for _, e := range testcorpus.All(t) {
		c := e.Compiler()
		mod, err := e.Untyped(c)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		n, err := infer.InferCounted(mod, c.TypeEnv, c.Registry)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		t.Logf("%-24s %+v", e.Name, n)
		if n.Commits != n.Alternatives {
			t.Errorf("%s: %d alternatives, %d commits", e.Name, n.Alternatives, n.Commits)
		}
		if max, ok := bounds[e.Name]; ok {
			delete(bounds, e.Name)
			if n.Trials > max {
				t.Errorf("%s: %d trials, bound %d", e.Name, n.Trials, max)
			}
		}
	}
	for name := range bounds {
		t.Errorf("%s is not in the corpus", name)
	}
}
