package infer_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/infer"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
	"wolfc/internal/testcorpus"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

var (
	regionBlock = regexp.MustCompile(`^\s*(?:exits land: )?block (\S+\(\d+\))((?:, poll)*)`)
	regionEdge  = regexp.MustCompile(`^\s*edge (\S+\(\d+\)) -> (\S+\(\d+\))`)
	regionLoop  = regexp.MustCompile(`^\s*(?:exits land: )?loop (\S+\(\d+\))`)
)

// checkRegionTree compares what `wolfc -stage regions` prints for a function
// with the function's CFG: the tree holds every reachable block once and
// every edge — every set of phi moves — once, what it calls a loop is what
// the back edges say, an abort poll sits on exactly the blocks that hold an
// AbortCheck, and each loop header has one.
func checkRegionTree(t *testing.T, what string, f *wir.Function, printed string) {
	t.Helper()
	name := func(b *wir.Block) string { return fmt.Sprintf("%s(%d)", b.Label, b.IDNum+1) }
	blocks, edges, loops, polls := map[string]int{}, map[string]int{}, map[string]int{}, map[string]int{}
	for _, line := range strings.Split(printed, "\n") {
		if m := regionBlock.FindStringSubmatch(line); m != nil {
			blocks[m[1]]++
			polls[m[1]] = strings.Count(m[2], "poll")
		} else if m := regionEdge.FindStringSubmatch(line); m != nil {
			edges[m[1]+" -> "+m[2]]++
		} else if m := regionLoop.FindStringSubmatch(line); m != nil {
			loops[m[1]]++
		}
	}
	cfg := passes.Analyze(f)
	reachable, wantEdges := 0, 0
	for i, b := range f.Blocks {
		if cfg.RPO[i] < 0 {
			if blocks[name(b)] != 0 {
				t.Errorf("%s: unreachable block %s is in the tree", what, name(b))
			}
			continue
		}
		reachable++
		if blocks[name(b)] != 1 {
			t.Errorf("%s: block %s is in the tree %d times", what, name(b), blocks[name(b)])
		}
		checks := 0
		for _, in := range b.Instrs {
			if in.Op == wir.OpAbortCheck {
				checks++
			}
		}
		if polls[name(b)] != checks {
			t.Errorf("%s: block %s holds %d abort checks, the tree polls %d times there", what, name(b), checks, polls[name(b)])
		}
		if cfg.Header[i] != (loops[name(b)] == 1) {
			t.Errorf("%s: %s is a loop header = %v, the tree has %d loops on it", what, name(b), cfg.Header[i], loops[name(b)])
		}
		if cfg.Header[i] && !b.AbortInhibit && checks != 1 && b != f.Entry() {
			t.Errorf("%s: loop header %s holds %d abort checks, want one", what, name(b), checks)
		}
		for _, s := range b.Succs() {
			wantEdges++
			if e := name(b) + " -> " + name(s); edges[e] == 0 {
				t.Errorf("%s: edge %s is not in the tree", what, e)
			}
		}
	}
	total := 0
	for _, n := range edges {
		total += n
	}
	if total != wantEdges || len(blocks) != reachable {
		t.Errorf("%s: the tree holds %d blocks and %d edges, the CFG %d and %d", what, len(blocks), total, reachable, wantEdges)
	}
}

// checkModuleRegions checks every function's region tree, fused and unfused,
// of a module the passes have run over; it returns how many loops the trees
// hold.
func checkModuleRegions(t *testing.T, what string, mod *wir.Module) int {
	t.Helper()
	loops := 0
	for _, fuse := range []int{codegen.FuseFull, codegen.FuseOff} {
		out, err := codegen.Regions(mod, codegen.CompileOptions{FuseLevel: fuse})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		// One unindented line names each function; its tree follows.
		trees := map[string]string{}
		var cur string
		for _, line := range strings.Split(out, "\n") {
			if line != "" && !strings.HasPrefix(line, " ") {
				cur = line
				continue
			}
			trees[cur] += line + "\n"
		}
		for _, f := range mod.Funcs {
			checkRegionTree(t, fmt.Sprintf("%s/%s fuse=%d", what, f.Name, fuse), f, trees[f.Name])
		}
		loops = strings.Count(out, "loop ")
	}
	return loops
}

// TestRegionTreeCoversCFG: for every function the evaluation compiles — the
// golden TWIR corpus (the bench sources and what patcomp synthesises from the
// two tiering corpora) and the tracked benchmark's own programs — the region
// tree the closure backend runs is the function's CFG, whole and once.
func TestRegionTreeCoversCFG(t *testing.T) {
	modules, loops := 0, 0
	for _, e := range testcorpus.All(t) {
		c := e.Compiler()
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
		opts := c.Options
		opts.OptimizationLevel = 2
		if err := passes.RunPipeline(mod, &passes.Context{Env: c.TypeEnv, Opts: opts}); err != nil {
			t.Fatalf("%s: passes: %v", e.Name, err)
		}
		loops += checkModuleRegions(t, e.Name, mod)
		modules++
	}
	if modules < 40 || loops < 30 {
		t.Errorf("checked %d corpus modules holding %d loops: the walk is not reaching the corpus", modules, loops)
	}

	// The benchmark's programs, read where the benchmark reads them. Those
	// that are not a Function of typed parameters on their own (interpreter
	// inputs, DownValues, the helper qsort declares) are compiled the way the
	// benchmark compiles them or skipped.
	dir := filepath.Join("..", "..", "benchmark", "programs")
	files, err := filepath.Glob(filepath.Join(dir, "*.wl"))
	if err != nil || len(files) < 15 {
		t.Fatalf("benchmark programs: %v (%d files)", err, len(files))
	}
	read := func(name string) expr.Expr {
		src, err := os.ReadFile(filepath.Join(dir, name+".wl"))
		if err != nil {
			t.Fatal(err)
		}
		return parser.MustParse(string(src))
	}
	compiled := 0
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".wl")
		c := testcorpus.Entry{}.Compiler()
		c.Options.OptimizationLevel = 2
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := parser.Parse(string(src))
		if err != nil {
			continue // several definitions: DownValues for the tiering ladder
		}
		req := core.CompileRequest{}
		switch name {
		case "fib":
			req.SelfName = "cfib"
		case "qsort":
			c.TypeEnv.DeclareFunction(&types.FuncDef{
				Name: "BenchQSortHelper",
				Type: c.TypeEnv.MustParseSpec(parser.MustParse(
					`{"Tensor"["Real64", 1], "Integer64", "Integer64", {"Real64", "Real64"} -> "Boolean"} -> "Integer64"`)),
				Impl: read("qsort_helper"),
			})
		case "primeq":
			fn = expr.Replace(fn, func(x expr.Expr) expr.Expr {
				if s, ok := x.(*expr.Symbol); ok && s.Name == "PRIMESEEDS" {
					return parser.MustParse("{2, 3, 5, 7, 11, 13}") // the benchmark splices its seed table here
				}
				return x
			})
		}
		ccf, err := c.FunctionCompileRequest(fn, req)
		if err != nil {
			t.Logf("%s: not compiled on its own: %v", name, err)
			continue
		}
		compiled++
		checkModuleRegions(t, "benchmark/"+name, ccf.Module) // the compile ran the passes
	}
	if compiled < 14 {
		t.Errorf("only %d of the benchmark's %d programs compiled", compiled, len(files))
	}
}
