package passes_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"wolfc/internal/core"
	"wolfc/internal/infer"
	"wolfc/internal/passes"
	"wolfc/internal/testcorpus"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// The post-pass golden: what the optimiser makes of every module the
// evaluation compiles, at O1 and O2, with the pass manager's per-pass changed
// counts and fixpoint trips. It was taken before the passes were rewritten to
// scan in proportion to their work; a change to how a pass finds its work must
// leave this file alone.

var updatePostPass = flag.Bool("update", false, "rewrite testdata/postpass.golden from this build's passes")

var hygieneSuffix = regexp.MustCompile("`h[0-9]+")

// libraryNatives is every native a standard-library row declares.
func libraryNatives() map[string]bool {
	env := types.Builtin()
	natives := map[string]bool{}
	for _, name := range env.FuncNames() {
		for _, d := range env.Lookup(name) {
			natives[d.Native] = true
		}
	}
	return natives
}

// typedCorpusModule lowers, infers and resolves one corpus entry: the module
// the pass pipeline receives in a compile.
func typedCorpusModule(t testing.TB, e testcorpus.Entry, c *core.Compiler) *wir.Module {
	t.Helper()
	mod, err := e.Untyped(c)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	if err := infer.InferWith(mod, c.TypeEnv, c.Registry); err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	if err := c.ResolveFunctions(mod); err != nil {
		t.Fatalf("%s: resolve: %v", e.Name, err)
	}
	return mod
}

func TestGoldenPostPassCorpus(t *testing.T) {
	declared := libraryNatives()
	var b strings.Builder
	for _, e := range testcorpus.All(t) {
		c := e.Compiler()
		for _, level := range []int{1, 2} {
			mod := typedCorpusModule(t, e, c)
			opts := c.Options
			opts.OptimizationLevel = level
			rep := passes.NewReport()
			if err := passes.RunPipeline(mod, &passes.Context{Env: c.TypeEnv, Opts: opts, Report: rep}); err != nil {
				t.Fatalf("%s O%d: %v", e.Name, level, err)
			}
			for _, f := range mod.Funcs {
				f.Each(func(in *wir.Instr) {
					// A native no row declares is Effectful by default:
					// every pass would leave it alone without saying so.
					if native, _ := passes.CutInto(in.NativeName()); in.Op == wir.OpCall && native != "" && !declared[native] {
						t.Errorf("%s O%d: %s calls native %s, which no library row declares", e.Name, level, f.Name, native)
					}
				})
			}
			fmt.Fprintf(&b, "=== %s O%d\n", e.Name, level)
			for _, s := range rep.Passes {
				fmt.Fprintf(&b, "; %s runs=%d changed=%d\n", s.Name, s.Runs, s.Changed)
			}
			var groups []string
			for name := range rep.Trips {
				groups = append(groups, name)
			}
			sort.Strings(groups)
			for _, name := range groups {
				fmt.Fprintf(&b, "; trips %s=%d\n", name, rep.Trips[name])
			}
			b.WriteString(mod.String())
		}
	}
	got := hygieneSuffix.ReplaceAllString(b.String(), "`h_")
	path := filepath.Join("testdata", "postpass.golden")
	if *updatePostPass {
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
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("optimised TWIR differs from testdata/postpass.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("optimised TWIR is a strict prefix of testdata/postpass.golden (%d of %d lines)", len(gl), len(wl))
	}
}
