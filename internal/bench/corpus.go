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

// ColdstartKernels is the `wolfbench -coldstart` corpus. It leans on
// medium-sized kernels on purpose: tiny definitions spend so little in the
// front half of the pipeline that a disk hit saves almost nothing, while
// realistic nested-loop kernels pay the inference the warm path skips.
var ColdstartKernels = []struct {
	Name, Src string
	Arg       int64
}{
	{"mandelcount", `Function[{Typed[maxIter, "MachineInteger"]},
		Module[{total = 0, xi = 0, yi = 0, step = Function[{zr, zi, cr}, zr*zr - zi*zi + cr], cr = 0., ci = 0., zr = 0., zi = 0., t = 0., iters = 0},
			While[xi <= 20,
				cr = -1. + 0.1*xi; yi = 0;
				While[yi <= 15,
					ci = -1. + 0.1*yi; zr = 0.; zi = 0.; iters = 0;
					While[iters < maxIter && zr*zr + zi*zi < 4.,
						t = step[zr, zi, cr]; zi = 2.*zr*zi + ci; zr = t; iters = iters + 1];
					total = total + iters; yi = yi + 1];
				xi = xi + 1];
			total]]`, 60},
	{"convgrid", `Function[{Typed[n, "MachineInteger"]},
		Module[{acc = 0., i = 1, j = 1, k = 1, w = 0., f = Function[{a, b}, a*0.5 + b*0.25]},
			While[i <= n,
				j = 1;
				While[j <= n,
					k = 1; w = 0.;
					While[k <= 3,
						w = f[w, 1. / (0. + i + j + k)]; k = k + 1];
					acc = acc + w; j = j + 1];
				i = i + 1];
			Floor[acc*1000000.]]]`, 48},
	{"horner", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0., x = 0., i = 0, p = 0.},
			While[i < n,
				x = 0.001*i;
				p = ((((x*0.3 + 1.1)*x - 0.7)*x + 0.25)*x - 1.9)*x + 0.5;
				s = s + p*p - 0.1*p; i = i + 1];
			Floor[s*1000.]]]`, 5000},
	{"gcdsum", `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1, a = 0, b = 0, t = 0},
			While[i <= n,
				a = i; b = n - i + 3;
				While[b != 0, t = Mod[a, b]; a = b; b = t];
				s = s + a; i = i + 1];
			s]]`, 2000},
	{"square", `Function[{Typed[x, "MachineInteger"]}, x*x + 1]`, 41},
	{"rhalf", `Function[{Typed[x, "MachineInteger"]}, Floor[(0. + x)/2.0 + 1.5]]`, 13},
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

// CompiledSources lists every source sources.go and fusion.go hand the new
// compiler, then the cold-start kernels.
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
	add("fusion-scalarloop", parser.MustParse(fusionScalarLoopSrc))
	add("fusion-mandelfuse", parser.MustParse(fusionMandelbrotSrc))
	add("fusion-partloop", parser.MustParse(fusionPartLoopSrc))
	for _, k := range ColdstartKernels {
		add("coldstart-"+k.Name, parser.MustParse(k.Src))
	}
	return out
}
