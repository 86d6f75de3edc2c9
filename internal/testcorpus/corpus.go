// Package testcorpus is the 46-module corpus the tests of several packages
// walk: every source the evaluation compiles. It is imported by tests only
// (it sits above core, so core's and codegen's tests reach it from their
// external test packages).
package testcorpus

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wolfc/internal/bench"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/patcomp"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// Entry is one module to infer: sources name their functions as the
// compiler will see them (a synthesised definition is named after its symbol,
// so its recursive calls are module calls).
type Entry struct {
	Name    string
	Fns     []NamedFn
	Declare func(env *types.Env)
}

type NamedFn struct {
	Name string // "" keeps Main
	Fn   expr.Expr
}

// All is every bench source, the kernels of kernels.go, then what patcomp
// synthesises for each promotable definition of the two tiering corpora. It
// reads examples/ relative to a package directory under internal/.
func All(t testing.TB) []Entry {
	t.Helper()
	var out []Entry
	for _, s := range bench.CompiledSources() {
		out = append(out, Entry{Name: s.Name, Fns: []NamedFn{{Fn: s.Fn}}, Declare: s.Declare})
	}
	for _, s := range kernelSources {
		out = append(out, Entry{Name: s.name, Fns: []NamedFn{{Fn: parser.MustParse(s.src)}}})
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
func synthesised(t testing.TB, dir string) []Entry {
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
	var out []Entry
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
						for _, nf := range e.Fns {
							key.WriteString(nf.Name + "=" + expr.FullForm(nf.Fn) + ";")
						}
						if !seen[key.String()] {
							seen[key.String()] = true
							e.Name = fmt.Sprintf("%s-%s-%d", dir, sym.Name, len(out))
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
func synthGroup(k *kernel.Kernel, root *expr.Symbol, kinds map[*expr.Symbol][]types.Type) (Entry, bool) {
	var e Entry
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
		e.Fns = append(e.Fns, NamedFn{Name: sym.Name, Fn: def.Synthesize()})
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

// Untyped lowers an entry into one untyped module.
func (e Entry) Untyped(c *core.Compiler) (*wir.Module, error) {
	if len(e.Fns) == 1 && e.Fns[0].Name == "" {
		return c.BuildWIR(e.Fns[0].Fn)
	}
	merged := &wir.Module{}
	for _, nf := range e.Fns {
		sub, err := c.BuildWIR(nf.Fn)
		if err != nil {
			return nil, err
		}
		merged.Adopt(sub, nf.Name)
	}
	return merged, nil
}

// Compiler is a fresh compiler with the entry's declarations made.
func (e Entry) Compiler() *core.Compiler {
	k := kernel.New()
	k.Out = io.Discard
	c := core.NewCompilerWith(k, fnreg.NewRegistry("twir-corpus"))
	if e.Declare != nil {
		e.Declare(c.TypeEnv)
	}
	return c
}
