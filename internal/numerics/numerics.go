// Package numerics implements numeric solvers that perform auto-compilation
// (the paper's implicit compilation mode, §1): FindRoot symbolically
// differentiates its equation with the kernel's D, compiles both the
// function and its derivative with the new compiler, and runs Newton
// iterations on the compiled pair. When compilation is not possible the
// solver falls back to interpreted evaluation — the same gradual path the
// engine's numeric functions take.
package numerics

import (
	"fmt"
	"math"

	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
	"wolfc/internal/pattern"
	"wolfc/internal/runtime"
)

// numericsFallbacks counts solver evaluators that could not auto-compile
// and fell back to interpreted evaluation (gradual compilation, F9).
var numericsFallbacks = obs.NewCounter("numerics_fallbacks")

// FindRootOptions tunes the Newton iteration.
type FindRootOptions struct {
	MaxIterations int
	Tolerance     float64
	// AutoCompile controls the implicit compilation (§1: FindRoot achieves
	// a 1.6x speedup by auto-compiling the input function); off forces the
	// interpreted path for comparison.
	AutoCompile bool
}

// DefaultFindRootOptions mirrors the engine's defaults.
func DefaultFindRootOptions() FindRootOptions {
	return FindRootOptions{MaxIterations: 100, Tolerance: 1e-12, AutoCompile: true}
}

// FindRoot solves eq == 0 for the variable x starting from x0 using
// Newton's method, like FindRoot[Sin[x] + E^x, {x, 0}]. The derivative is
// computed symbolically (paper §2.1: "The root solver symbolically computes
// the derivative of the input equation").
func FindRoot(k *kernel.Kernel, eq expr.Expr, x *expr.Symbol, x0 float64, opts FindRootOptions) (float64, error) {
	// A zero-value options struct gets the engine defaults, so callers can
	// pass FindRootOptions{} without silently running zero iterations.
	if opts.MaxIterations == 0 {
		opts.MaxIterations = DefaultFindRootOptions().MaxIterations
	}
	if opts.Tolerance == 0 {
		opts.Tolerance = DefaultFindRootOptions().Tolerance
	}
	deriv, err := k.EvalGuarded(expr.NewS("D", eq, x))
	if err != nil {
		return 0, fmt.Errorf("FindRoot: differentiation failed: %w", err)
	}

	f, err := makeEvaluator(k, eq, x, opts.AutoCompile)
	if err != nil {
		return 0, err
	}
	df, err := makeEvaluator(k, deriv, x, opts.AutoCompile)
	if err != nil {
		return 0, err
	}

	xn := x0
	for i := 0; i < opts.MaxIterations; i++ {
		fx, err := f(xn)
		if err != nil {
			return 0, err
		}
		if math.Abs(fx) < opts.Tolerance {
			return xn, nil
		}
		dfx, err := df(xn)
		if err != nil {
			return 0, err
		}
		if dfx == 0 {
			return 0, fmt.Errorf("FindRoot: zero derivative at x = %v", xn)
		}
		xn -= fx / dfx
		if math.IsNaN(xn) || math.IsInf(xn, 0) {
			return 0, fmt.Errorf("FindRoot: iteration diverged")
		}
	}
	return xn, fmt.Errorf("FindRoot: no convergence within %d iterations (last x = %v)", opts.MaxIterations, xn)
}

// Auto-compiled equations go through the compile cache in internal/core
// (bounded, shared with explicit FunctionCompile), so repeated FindRoot
// calls on the same equation compile once and long-lived processes don't
// accumulate compiled programs. One default-environment
// compiler is memoised per kernel: building the default macro/type
// environments per lookup would dwarf the cache hit it feeds, and compilers
// with identical environment histories share cache entries anyway. The memo
// lives on the kernel itself (kernel.Assoc) rather than in a package-level
// map keyed by kernel pointer — the former sync.Map version pinned every
// kernel (and its compiler) ever used for numerics for the process
// lifetime, a real leak once sessions churn.
const compilerAssocKey = "numerics.compiler"

func cachedCompile(k *kernel.Kernel, fn expr.Expr) (*core.CompiledCodeFunction, error) {
	c := k.AssocOrStore(compilerAssocKey, func() any { return core.NewCompiler(k) }).(*core.Compiler)
	return c.FunctionCompileCached(fn)
}

// UseCompiler pins c as the kernel's numerics compiler (an engine installs
// its registry-scoped compiler here so implicit FindRoot/NIntegrate
// compiles resolve and cache inside the engine's namespace).
func UseCompiler(k *kernel.Kernel, c *core.Compiler) {
	k.SetAssoc(compilerAssocKey, c)
}

// ReleaseCompiler drops the kernel's memoised numerics compiler (engine
// shutdown; also drops any UseCompiler pin).
func ReleaseCompiler(k *kernel.Kernel) {
	k.SetAssoc(compilerAssocKey, nil)
}

// makeEvaluator builds a float64 evaluator for eq(x): compiled when
// requested and possible (auto-compilation), interpreted otherwise.
func makeEvaluator(k *kernel.Kernel, eq expr.Expr, x *expr.Symbol, autoCompile bool) (func(float64) (float64, error), error) {
	if autoCompile {
		fn := expr.New(expr.SymFunction,
			expr.List(expr.New(expr.SymTyped, x, expr.FromString("Real64"))), eq)
		ccf, err := cachedCompile(k, fn)
		if err == nil {
			return func(v float64) (out float64, err error) {
				defer func() {
					if r := recover(); r != nil {
						runtime.Caught(r)
						err = fmt.Errorf("compiled evaluation failed: %v", r)
					}
				}()
				switch r := ccf.CallRaw(v).(type) {
				case float64:
					return r, nil
				case int64: // e.g. a constant derivative inferred integral
					return float64(r), nil
				default:
					return 0, fmt.Errorf("equation did not evaluate to a real at x = %v", v)
				}
			}, nil
		}
		// Fall through to the interpreter (gradual compilation). Compile
		// failure is already the expensive path, so the counter is
		// unconditional; the trace event is gated.
		numericsFallbacks.Inc()
		if obs.TraceEnabled() {
			// This runs on the evaluating goroutine, so the kernel's span (if
			// a traced request is active) is the right parent.
			sc, _ := k.TraceSpan().(obs.SpanContext)
			if !sc.Suppressed() {
				ev := obs.TraceEvent{Type: "fallback", Name: expr.InputForm(eq),
					TNs: obs.TraceNow(), Detail: "auto-compile failed: " + err.Error()}
				sc.Annotate(&ev)
				obs.Emit(ev)
			}
		}
	}
	return func(v float64) (float64, error) {
		bound := pattern.Substitute(eq, pattern.Bindings{x: expr.FromFloat(v)})
		out, err := k.EvalGuarded(expr.NewS("N", bound))
		if err != nil {
			return 0, err
		}
		switch r := out.(type) {
		case *expr.Real:
			return r.V, nil
		case *expr.Integer:
			if r.IsMachine() {
				return float64(r.Int64()), nil
			}
		}
		return 0, fmt.Errorf("equation did not evaluate numerically at x = %v: %s", v, expr.InputForm(out))
	}, nil
}

// NIntegrate approximates the integral of eq over [a, b] with composite
// Simpson's rule on n panels, auto-compiling the integrand like FindRoot.
func NIntegrate(k *kernel.Kernel, eq expr.Expr, x *expr.Symbol, a, b float64, n int, autoCompile bool) (float64, error) {
	if n%2 == 1 {
		n++
	}
	f, err := makeEvaluator(k, eq, x, autoCompile)
	if err != nil {
		return 0, err
	}
	h := (b - a) / float64(n)
	sum := 0.0
	fa, err := f(a)
	if err != nil {
		return 0, err
	}
	fb, err := f(b)
	if err != nil {
		return 0, err
	}
	sum = fa + fb
	for i := 1; i < n; i++ {
		fx, err := f(a + float64(i)*h)
		if err != nil {
			return 0, err
		}
		if i%2 == 1 {
			sum += 4 * fx
		} else {
			sum += 2 * fx
		}
	}
	return sum * h / 3, nil
}

// FixedPointReal iterates x -> f(x) to numerical convergence, with the same
// auto-compilation behaviour.
func FixedPointReal(k *kernel.Kernel, eq expr.Expr, x *expr.Symbol, x0 float64, maxIter int, autoCompile bool) (float64, error) {
	f, err := makeEvaluator(k, eq, x, autoCompile)
	if err != nil {
		return 0, err
	}
	xn := x0
	for i := 0; i < maxIter; i++ {
		next, err := f(xn)
		if err != nil {
			return 0, err
		}
		if math.Abs(next-xn) < 1e-12 {
			return next, nil
		}
		xn = next
	}
	return xn, fmt.Errorf("FixedPointReal: no convergence within %d iterations", maxIter)
}
