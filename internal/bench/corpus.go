package bench

import (
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

// CompiledSource is one Function the new compiler compiles somewhere in the
// evaluation, for callers that compile out of band: the golden TWIR corpus
// that pins inference's answers reads every one of them.
type CompiledSource struct {
	Name string
	Fn   expr.Expr
	// Declare makes the declarations Fn needs into a compiler's type
	// environment (QSort's Wolfram-source helper); nil for the rest.
	Declare func(env *types.Env)
}

// declareQSortHelper declares the recursive quicksort helper as a
// Wolfram-source implementation, resolved and compiled at the concrete
// instantiation (paper §4.4/§4.5); it takes the comparator as a function
// value.
func declareQSortHelper(env *types.Env) {
	env.DeclareFunction(&types.FuncDef{
		Name: "BenchQSortHelper",
		Type: env.MustParseSpec(parser.MustParse(
			`{"Tensor"["Real64", 1], "Integer64", "Integer64", {"Real64", "Real64"} -> "Boolean"} -> "Integer64"`)),
		Impl: parser.MustParse(qsortHelperSrc),
	})
}

const qsortCmpSrc = `Function[{Typed[a, "Real64"], Typed[b, "Real64"]}, a < b]`

// CompiledSources lists every source sources.go hands the new compiler.
func CompiledSources() []CompiledSource {
	var out []CompiledSource
	add := func(name string, fn expr.Expr) { out = append(out, CompiledSource{Name: name, Fn: fn}) }
	for _, name := range []string{"fnv1a", "mandelbrot", "dot", "blur", "histogram"} {
		src, _ := FnSource(name)
		add(name, parser.MustParse(src))
	}
	add("primeq", spliceSeeds(newFn(`Typed[limit, "MachineInteger"]`, primeQBody)))
	add("primeq-one", spliceSeeds(newFn(`Typed[n, "MachineInteger"]`, primeQOneBody)))
	out = append(out, CompiledSource{Name: "qsort", Fn: parser.MustParse(qsortMainSrc), Declare: declareQSortHelper})
	add("qsort-cmp", parser.MustParse(qsortCmpSrc))
	add("randomwalk", parser.MustParse(randomWalkNestListSrc))
	return out
}
