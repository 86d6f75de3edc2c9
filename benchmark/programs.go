package main

import (
	"embed"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
)

// The input programs and their expected outputs travel with the benchmark
// (copied from internal/bench and cmd/wolfbench, not imported), so a later
// change to those packages cannot move this benchmark's inputs.
//
//go:embed programs/*.wl expected/*.txt
var files embed.FS

func sourceText(name string) string {
	b, err := files.ReadFile("programs/" + name + ".wl")
	if err != nil {
		panic(err) // the file set is fixed at build time
	}
	return string(b)
}

func parsed(name string) expr.Expr { return parser.MustParse(sourceText(name)) }

// program is one of the nine Figure 1/2 programs. Inputs come from a small
// pool of variants per program; the run's seed picks one. Every variant of
// a program costs the same to run (same sizes, same distribution), so the
// seed changes the data and not the work.
type program struct {
	name     string
	why      string
	scalar   bool // fig2_scalar (true) or fig2_tensor (false)
	variants int
	// size is the workload parameter (§6's sizes scaled to this machine's
	// window); small is the size -regen-expected can afford to push through
	// the interpreter, whose list access is linear in the list length.
	size, small int
	selfName    string // CompileNamed recursion symbol, "" for none
	source      func() expr.Expr
	// declare extends the compiler's type environment before compiling
	// (qsort's helper); nil for the rest.
	declare func(c *core.Compiler)
	// bind prepares variant v's inputs at size n and returns the three ways
	// to run the program on them.
	bind func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, n int) (bound, error)
}

// bound is a program bound to one input variant.
type bound struct {
	before func()     // untimed preparation before each call or ref; may be nil
	call   func() any // one compiled invocation: the timed operation
	ref    func() any // the Go reference on the same input
	// interp evaluates the same program on the same input in the plain
	// interpreter; only -regen-expected calls it.
	interp func(k *kernel.Kernel) (expr.Expr, error)
}

// variantRand is the input generator of (program, variant): fixed for all
// time, so expected/*.txt stays valid.
func variantRand(name string, v int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", name, v)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

func realTensor(v []float64, dims ...int) *runtime.Tensor {
	t := runtime.NewTensor(runtime.KR64, dims...)
	copy(t.F, v)
	t.MarkShared()
	return t
}

func intTensor(v []int64, dims ...int) *runtime.Tensor {
	t := runtime.NewTensor(runtime.KI64, dims...)
	copy(t.I, v)
	t.MarkShared()
	return t
}

func intsExpr(v []int64) expr.Expr {
	out := make([]expr.Expr, len(v))
	for i, x := range v {
		out[i] = expr.FromInt64(x)
	}
	return expr.List(out...)
}

func realsExpr(v []float64) expr.Expr {
	out := make([]expr.Expr, len(v))
	for i, x := range v {
		out[i] = expr.FromFloat(x)
	}
	return expr.List(out...)
}

func matrixExpr(v []float64, rows, cols int) expr.Expr {
	out := make([]expr.Expr, rows)
	for i := range out {
		out[i] = realsExpr(v[i*cols : (i+1)*cols])
	}
	return expr.List(out...)
}

// untyped strips Typed[x, _] parameter annotations so the interpreter can
// apply a compiler-facing Function.
func untyped(e expr.Expr) expr.Expr {
	return expr.Replace(e, func(x expr.Expr) expr.Expr {
		if t, ok := expr.IsNormalN(x, expr.SymTyped, 2); ok {
			return t.Arg(1)
		}
		return x
	})
}

// interpApply applies the named source, stripped of its type annotations,
// to the arguments args builds. Nothing is built until the interpreter is
// asked for, which is only under -regen-expected: a 200 000-element list
// expression must not count as set-up time.
func interpApply(source string, args func() []expr.Expr) func(*kernel.Kernel) (expr.Expr, error) {
	return func(k *kernel.Kernel) (expr.Expr, error) {
		return k.Run(expr.New(untyped(parsed(source)), args()...))
	}
}

func exprs(e ...expr.Expr) []expr.Expr { return e }

// primeSeedTable splices the literal table of primes below 2^14 in place
// of the PRIMESEEDS placeholder, as the paper embeds a generated seed
// table as a constant array.
func primeSeedTable(e expr.Expr) expr.Expr {
	return pattern.Substitute(e, pattern.Bindings{expr.Sym("PRIMESEEDS"): intsExpr(primesBelow(1 << 14))})
}

func programs() []*program {
	return []*program{
		{
			name: "fnv1a", size: 200_000, small: 2000, scalar: true, variants: 4,
			why:    "byte loop over a string: integer ops, masking and one native call per iteration",
			source: func() expr.Expr { return parsed("fnv1a") },
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				rng := variantRand("fnv1a", v)
				var sb strings.Builder
				for i := 0; i < size; i++ {
					sb.WriteByte(byte(32 + rng.Intn(95)))
				}
				s := sb.String()
				return bound{
					call: func() any { return ccf.CallRaw(s) },
					ref:  func() any { return fnv1aRef(s) },
					interp: interpApply("fnv1a_interp", func() []expr.Expr {
						codes := make([]int64, len(s))
						for i := range codes {
							codes[i] = int64(s[i])
						}
						return exprs(intsExpr(codes))
					}),
				}, nil
			},
		},
		{
			name: "mandelbrot", size: 1000, small: 40, scalar: true, variants: 1,
			why:    "triple-nested real-arithmetic loop: the fused-superinstruction and abort-poll path",
			source: func() expr.Expr { return parsed("mandelbrot") },
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				n := int64(size)
				return bound{
					call:   func() any { return ccf.CallRaw(n) },
					ref:    func() any { return mandelbrotRef(n) },
					interp: interpApply("mandelbrot", func() []expr.Expr { return exprs(expr.FromInt64(n)) }),
				}, nil
			},
		},
		{
			name: "primeq", size: 100_000, small: 17_000, scalar: true, variants: 1,
			why:    "Rabin-Miller with an embedded constant table: integer Mod/Quotient and constant-array reads",
			source: func() expr.Expr { return primeSeedTable(parsed("primeq")) },
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				n := int64(size)
				seeds := primesBelow(1 << 14)
				return bound{
					call: func() any { return ccf.CallRaw(n) },
					ref:  func() any { return primeqRef(n, seeds) },
					interp: func(k *kernel.Kernel) (expr.Expr, error) {
						return k.Run(expr.New(primeSeedTable(untyped(parsed("primeq"))), expr.FromInt64(n)))
					},
				}, nil
			},
		},
		{
			name: "fib", size: 27, small: 15, scalar: true, variants: 1, selfName: "cfib",
			why:    "recursive cfib (§4.1): call/return and function prologue cost, nothing else",
			source: func() expr.Expr { return parsed("fib") },
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				n := int64(size)
				return bound{
					call: func() any { return ccf.CallRaw(n) },
					ref:  func() any { return fibRef(n) },
					interp: func(k *kernel.Kernel) (expr.Expr, error) {
						if _, err := k.Run(expr.NewS("Set", expr.Sym("cfib"), untyped(parsed("fib")))); err != nil {
							return nil, err
						}
						return k.Run(expr.NewS("cfib", expr.FromInt64(n)))
					},
				}, nil
			},
		},
		{
			name: "blur", size: 256, small: 24, variants: 4,
			why:    "3x3 stencil: nine rank-2 Part reads and one SetPart per pixel",
			source: func() expr.Expr { return parsed("blur") },
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				rng := variantRand("blur", v)
				img := make([]float64, size*size)
				for i := range img {
					img[i] = float64(rng.Intn(256)) / 255
				}
				t := realTensor(img, size, size)
				n := int64(size)
				return bound{
					call: func() any { return ccf.CallRaw(t, n, n) },
					ref:  func() any { return blurRef(img, size, size) },
					interp: interpApply("blur", func() []expr.Expr {
						return exprs(matrixExpr(img, size, size), expr.FromInt64(n), expr.FromInt64(n))
					}),
				}, nil
			},
		},
		{
			name: "histogram", size: 200_000, small: 2000, variants: 4,
			why:    "data-dependent read-modify-write of a 256-bin tensor: bounds checks and in-place SetPart",
			source: func() expr.Expr { return parsed("histogram") },
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				rng := variantRand("histogram", v)
				data := make([]int64, size)
				for i := range data {
					data[i] = int64(rng.Intn(256))
				}
				t := intTensor(data, len(data))
				return bound{
					call:   func() any { return ccf.CallRaw(t) },
					ref:    func() any { return histogramRef(data) },
					interp: interpApply("histogram", func() []expr.Expr { return exprs(intsExpr(data)) }),
				}, nil
			},
		},
		{
			name: "qsort", size: 8192, small: 256, variants: 4,
			why:    "recursive in-place sort through a declared helper with the comparator passed as a function value (pre-sorted input, §6)",
			source: func() expr.Expr { return parsed("qsort") },
			declare: func(c *core.Compiler) {
				c.TypeEnv.DeclareFunction(&types.FuncDef{
					Name: "BenchQSortHelper",
					Type: c.TypeEnv.MustParseSpec(parser.MustParse(
						`{"Tensor"["Real64", 1], "Integer64", "Integer64", {"Real64", "Real64"} -> "Boolean"} -> "Integer64"`)),
					Impl: parsed("qsort_helper"),
				})
			},
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				rng := variantRand("qsort", v)
				in := make([]float64, size)
				x := rng.Float64()
				for i := range in {
					x += 0.25 + rng.Float64()
					in[i] = x
				}
				// Cached: binding again on the same compiler (every verified
				// compile of the corpus does) must not compile again.
				cmp, err := c.FunctionCompileCached(parsed("qsort_cmp"))
				if err != nil {
					return bound{}, err
				}
				cmpVal := cmp.FunctionValue()
				t := realTensor(in, len(in))
				return bound{
					call: func() any { return ccf.CallRaw(t, cmpVal) },
					ref:  func() any { return qsortRef(in, func(a, b float64) bool { return a < b }) },
					interp: func(k *kernel.Kernel) (expr.Expr, error) {
						if _, err := k.Run(parsed("qsort_interp")); err != nil {
							return nil, err
						}
						k.RecursionLimit = 1 << 20
						return k.Run(expr.New(
							parser.MustParse("Function[{v}, qsHelp[v, 1, Length[v], Function[{a, b}, a < b]]]"),
							realsExpr(in)))
					},
				}, nil
			},
		},
		{
			name: "dot", size: 256, small: 24, variants: 4,
			why:    "one BLAS call: measures the tensor hand-off and the shared worker pool, not the closure backend",
			source: func() expr.Expr { return parsed("dot") },
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				rng := variantRand("dot", v)
				a := make([]float64, size*size)
				b := make([]float64, size*size)
				for i := range a {
					a[i] = float64(rng.Intn(2001)-1000) / 128
					b[i] = float64(rng.Intn(2001)-1000) / 128
				}
				ta, tb := realTensor(a, size, size), realTensor(b, size, size)
				return bound{
					call: func() any { return ccf.CallRaw(ta, tb) },
					ref:  func() any { return dotRef(size, a, b) },
					interp: interpApply("dot", func() []expr.Expr {
						return exprs(matrixExpr(a, size, size), matrixExpr(b, size, size))
					}),
				}, nil
			},
		},
		{
			name: "randomwalk", size: 20_000, small: 400, variants: 4,
			why:    "Figure 1: NestList over a pure function calling the kernel's random source and list arithmetic",
			source: func() expr.Expr { return parsed("randomwalk") },
			bind: func(c *core.Compiler, ccf *core.CompiledCodeFunction, v, size int) (bound, error) {
				seed := variantRand("randomwalk", v).Int63()
				n := int64(size)
				refRng := rand.New(rand.NewSource(seed))
				return bound{
					// Each call draws from a freshly seeded stream, so every
					// walk of a variant is the same walk.
					before: func() { c.Kernel.Seed(seed); refRng.Seed(seed) },
					call:   func() any { return ccf.CallRaw(n) },
					ref:    func() any { return randomWalkRef(size, refRng.Float64) },
					interp: func(k *kernel.Kernel) (expr.Expr, error) {
						k.Seed(seed)
						return k.Run(expr.New(untyped(parsed("randomwalk")), expr.FromInt64(n)))
					},
				}, nil
			},
		},
	}
}

// compileProgram compiles p the way a user would: FunctionCompile (or
// CompileNamed for the recursive row) with the compiler's current options.
func compileProgram(c *core.Compiler, p *program) (*core.CompiledCodeFunction, error) {
	if p.declare != nil {
		p.declare(c)
	}
	if p.selfName != "" {
		return c.CompileNamed(p.selfName, p.source())
	}
	return c.FunctionCompile(p.source())
}
