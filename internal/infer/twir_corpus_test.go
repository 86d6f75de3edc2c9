package infer_test

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wolfc/internal/bench"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/infer"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/patcomp"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// The golden TWIR corpus (ISSUE 18): what inference answers — the type of
// every value and the overload recorded on every call — for every source the
// evaluation compiles, taken at the commit before the solver was rewritten.
// Anything that changes how inference searches must leave this file alone.

var updateGolden = flag.Bool("update", false, "rewrite testdata/twir.golden from this build's inference")

// corpusEntry is one module to infer: sources name their functions as the
// compiler will see them (a synthesised definition is named after its symbol,
// so its recursive calls are module calls).
type corpusEntry struct {
	name    string
	fns     []namedFn
	declare func(env *types.Env)
}

type namedFn struct {
	name string // "" keeps Main
	fn   expr.Expr
}

// corpus is every bench source, the kernels of kernels_test.go, then what
// patcomp synthesises for each promotable definition of the two tiering
// corpora.
func corpus(t testing.TB) []corpusEntry {
	t.Helper()
	var out []corpusEntry
	for _, s := range bench.CompiledSources() {
		out = append(out, corpusEntry{name: s.Name, fns: []namedFn{{fn: s.Fn}}, declare: s.Declare})
	}
	for _, s := range kernelSources {
		out = append(out, corpusEntry{name: s.name, fns: []namedFn{{fn: parser.MustParse(s.src)}}})
	}
	for _, dir := range []string{"autocompile", "patterns"} {
		out = append(out, synthesised(t, dir)...)
	}
	return out
}

// sketch is the kind an evaluated argument dispatches under (the tiering
// engine's sketchKinds): machine scalars and homogeneous flat lists of them.
func sketch(a expr.Expr) types.Type {
	switch x := a.(type) {
	case *expr.Integer:
		if x.IsMachine() {
			return types.TInt64
		}
	case *expr.Real:
		return types.TReal64
	case *expr.Normal:
		if x.Head() != expr.SymList {
			return nil
		}
		elem := types.Type(types.TInt64)
		if x.Len() > 0 {
			elem = sketch(x.Arg(1))
		}
		if elem != types.TInt64 && elem != types.TReal64 {
			return nil
		}
		for _, e := range x.Args() {
			if sketch(e) != elem {
				return nil
			}
		}
		return types.TensorOf(elem, 1)
	}
	return nil
}

// synthesised plays examples/<dir>/corpus.wl through an interpreter and, at
// every top-level call of a symbol with DownValues, analyses the definition
// against the argument kinds. Each distinct synthesised function is one
// entry, merged with the definitions it calls (at the kinds they were last
// called with) the way the tiering engine types a mutual-recursion group.
func synthesised(t testing.TB, dir string) []corpusEntry {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", dir, "corpus.wl"))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := parser.ParseAll(string(src))
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New()
	k.Out = io.Discard
	var out []corpusEntry
	seen := map[string]bool{}
	lastKinds := map[*expr.Symbol][]types.Type{}
	for _, line := range lines {
		if call, ok := line.(*expr.Normal); ok {
			if sym, ok := call.Head().(*expr.Symbol); ok && len(k.DownValues(sym)) > 0 {
				kinds := make([]types.Type, call.Len())
				for i, a := range call.Args() {
					v, err := k.Run(a)
					if err == nil {
						kinds[i] = sketch(v)
					}
					if kinds[i] == nil {
						kinds = nil
						break
					}
				}
				if kinds != nil {
					lastKinds[sym] = kinds
					if e, ok := synthGroup(k, sym, lastKinds); ok {
						var key strings.Builder
						for _, nf := range e.fns {
							key.WriteString(nf.name + "=" + expr.FullForm(nf.fn) + ";")
						}
						if !seen[key.String()] {
							seen[key.String()] = true
							e.name = fmt.Sprintf("%s-%s-%d", dir, sym.Name, len(out))
							out = append(out, e)
						}
					}
				}
			}
		}
		if _, err := k.Run(line); err != nil {
			t.Fatalf("%s corpus: %s: %v", dir, expr.InputForm(line), err)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s corpus produced no promotable definition", dir)
	}
	return out
}

// synthGroup analyses root and, transitively, every definition it calls.
func synthGroup(k *kernel.Kernel, root *expr.Symbol, kinds map[*expr.Symbol][]types.Type) (corpusEntry, bool) {
	var e corpusEntry
	done := map[*expr.Symbol]bool{}
	work := []*expr.Symbol{root}
	for len(work) > 0 {
		sym := work[0]
		work = work[1:]
		if done[sym] {
			continue
		}
		done[sym] = true
		if kinds[sym] == nil {
			return e, false
		}
		def, err := patcomp.Analyze(sym, k.DownValues(sym), kinds[sym])
		if err != nil {
			return e, false
		}
		e.fns = append(e.fns, namedFn{name: sym.Name, fn: def.Synthesize()})
		for _, scan := range def.ScanExprs() {
			expr.Walk(scan, func(x expr.Expr) bool {
				if s, ok := x.(*expr.Symbol); ok && len(k.DownValues(s)) > 0 {
					work = append(work, s)
				}
				return true
			})
		}
	}
	return e, true
}

// untyped lowers an entry into one untyped module.
func (e corpusEntry) untyped(c *core.Compiler) (*wir.Module, error) {
	if len(e.fns) == 1 && e.fns[0].name == "" {
		return c.BuildWIR(e.fns[0].fn)
	}
	merged := &wir.Module{}
	for _, nf := range e.fns {
		sub, err := c.BuildWIR(nf.fn)
		if err != nil {
			return nil, err
		}
		for _, f := range sub.Funcs {
			if f.Name == "Main" {
				f.Name = nf.name
			} else {
				f.Name = nf.name + "`" + f.Name
			}
			f.Module = merged
			merged.Funcs = append(merged.Funcs, f)
		}
	}
	return merged, nil
}

func (e corpusEntry) compiler() *core.Compiler {
	k := kernel.New()
	k.Out = io.Discard
	c := core.NewCompilerWith(k, fnreg.NewRegistry("twir-corpus"))
	if e.declare != nil {
		e.declare(c.TypeEnv)
	}
	return c
}

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
	for _, e := range corpus(t) {
		c := e.compiler()
		mod, err := e.untyped(c)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		fmt.Fprintf(&b, "=== %s\n", e.name)
		if err := infer.InferWith(mod, c.TypeEnv, c.Registry); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		// Function resolution infers every Wolfram-source implementation an
		// overload carries, so the dump covers those sub-modules too.
		if err := c.ResolveFunctions(mod); err != nil {
			t.Fatalf("%s: resolve: %v", e.name, err)
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
	for _, e := range corpus(t) {
		c := e.compiler()
		infer1 := func(run func(mod *wir.Module) error) string {
			mod, err := e.untyped(c)
			if err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			if err := run(mod); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
			return dump(mod, c.TypeEnv)
		}
		want := infer1(func(mod *wir.Module) error { return infer.InferWith(mod, c.TypeEnv, c.Registry) })
		for seed := int64(1); seed <= 8; seed++ {
			got := infer1(func(mod *wir.Module) error { return infer.InferShuffled(mod, c.TypeEnv, c.Registry, seed) })
			if got != want {
				t.Errorf("%s: work-list order %d changed the types or overloads", e.name, seed)
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
	for _, e := range corpus(t) {
		c := e.compiler()
		mod, err := e.untyped(c)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		n, err := infer.InferCounted(mod, c.TypeEnv, c.Registry)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		t.Logf("%-24s %+v", e.name, n)
		if n.Commits != n.Alternatives {
			t.Errorf("%s: %d alternatives, %d commits", e.name, n.Alternatives, n.Commits)
		}
		if max, ok := bounds[e.name]; ok {
			delete(bounds, e.name)
			if n.Trials > max {
				t.Errorf("%s: %d trials, bound %d", e.name, n.Trials, max)
			}
		}
	}
	for name := range bounds {
		t.Errorf("%s is not in the corpus", name)
	}
}
