package types_test

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"math/cmplx"
	"strings"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

// forEachScalarOverload walks the standard library: every native-backed
// overload at every instantiation over machine scalars, as the source of a
// function of those parameters whose body is the one call.
func forEachScalarOverload(t *testing.T, env *types.Env, visit func(name string, d *types.FuncDef, sig *types.Fn, fn expr.Expr)) {
	for _, name := range env.FuncNames() {
		for _, d := range env.Lookup(name) {
			if d.Native == "" || d.Impl != nil {
				continue
			}
			for _, sig := range scalarInstances(env, d.Type) {
				if !(isScalar(sig.Ret) || sig.Ret == types.TVoid) {
					continue
				}
				var params, args []string
				for i, p := range sig.Params {
					params = append(params, fmt.Sprintf("Typed[a%d, %q]", i, p.String()))
					args = append(args, fmt.Sprintf("a%d", i))
				}
				src := fmt.Sprintf("Function[{%s}, %s[%s]]", strings.Join(params, ", "), name, strings.Join(args, ", "))
				fn, err := parser.Parse(src)
				if err != nil {
					t.Errorf("%s: %v", src, err)
					continue
				}
				visit(name, d, sig, fn)
			}
		}
	}
}

// TestBaselineTierCoversEveryScalarNative: the baseline tier types with the
// full pipeline's solver and generates with the closure backend at fusion
// off, so every native-backed overload over machine scalars must compile
// there. A failure means the two tiers' coverage has drifted apart again.
func TestBaselineTierCoversEveryScalarNative(t *testing.T) {
	c := core.NewCompiler(kernel.New())
	c.Stencil = true
	compiled := 0
	forEachScalarOverload(t, c.TypeEnv, func(name string, d *types.FuncDef, sig *types.Fn, fn expr.Expr) {
		if _, err := c.FunctionCompile(fn); err != nil {
			t.Errorf("%s (native %s): %v", expr.InputForm(fn), d.Native, err)
			return
		}
		compiled++
	})
	if compiled < 100 {
		t.Errorf("only %d scalar overloads compiled: the walk is not reaching the standard library", compiled)
	}
	t.Logf("%d scalar overload instances compiled on the baseline tier", compiled)
}

// TestSpecRoundTrip: Spec renders a type as the expression ParseSpec reads
// back into it, over every scalar overload instance of the standard library,
// and over tensors and function types.
func TestSpecRoundTrip(t *testing.T) {
	env := types.Builtin()
	roundTrip := func(ty types.Type) {
		t.Helper()
		back, err := env.ParseSpec(types.Spec(ty))
		if err != nil || !types.Equal(back, ty) {
			t.Errorf("%s: Spec %s parses back as %v (%v)", ty, expr.InputForm(types.Spec(ty)), back, err)
		}
	}
	visited := 0
	forEachScalarOverload(t, env, func(_ string, _ *types.FuncDef, sig *types.Fn, _ expr.Expr) {
		roundTrip(sig)
		visited++
	})
	if visited < 100 {
		t.Errorf("only %d overload instances visited", visited)
	}
	vec, mat := types.TensorOf(types.TReal64, 1), types.TensorOf(types.TInt64, 2)
	for _, ty := range []types.Type{
		vec, mat, types.TensorOf(types.TComplex, 3),
		&types.Fn{Params: []types.Type{vec, types.TInt64}, Ret: types.TReal64},
		&types.Fn{Params: []types.Type{&types.Fn{Params: []types.Type{types.TReal64, types.TReal64}, Ret: types.TBool}, mat}, Ret: mat},
		&types.Fn{Ret: types.TVoid},
	} {
		roundTrip(ty)
	}
}

// fuseLevels returns one compiler per closure-backend configuration, over
// one kernel, and their names.
func fuseLevels() (*kernel.Kernel, []*core.Compiler, []string) {
	k := kernel.New()
	k.Out = io.Discard
	fused, unfused := core.NewCompiler(k), core.NewCompiler(k)
	unfused.FuseLevel = codegen.FuseOff
	return k, []*core.Compiler{fused, unfused}, []string{"fused", "unfused"}
}

// samplePoints are the arguments each scalar overload is evaluated at: zero,
// the units, the machine-integer extremes (checked arithmetic must overflow
// into the interpreter fallback, never wrap), and reals that leave the
// elementary functions' real domain (the compiled result is then NaN or an
// infinity where the interpreter goes complex or symbolic).
var samplePoints = map[types.Type][]string{
	types.TInt64:   {"0", "1", "-1", "7", "9223372036854775807", "-9223372036854775808"},
	types.TReal64:  {"0.", "1.", "-1.", "0.5", "-2.5", "1.*^300"},
	types.TComplex: {"Complex[0., 0.]", "Complex[1., -1.]", "Complex[0.25, -0.5]"},
	types.TBool:    {"True", "False"},
}

// hugeOperand names the functions whose second operand is an exponent or a
// shift count: the interpreter computes the exact big integer, so only the
// small sample points are used there.
var hugeOperand = map[string]bool{"Power": true, "BitShiftLeft": true, "BitShiftRight": true}

// machineNumber reads a machine real or complex result.
func machineNumber(e expr.Expr) (complex128, bool) {
	switch x := e.(type) {
	case *expr.Integer:
		if x.IsMachine() {
			return complex(float64(x.Int64()), 0), true
		}
	case *expr.Real:
		return complex(x.V, 0), true
	case *expr.Complex:
		return complex(x.Re, x.Im), true
	}
	return 0, false
}

func nonFinite(z complex128) bool { return cmplx.IsNaN(z) || cmplx.IsInf(z) }

// agree compares two inexact results: a non-finite reference needs a
// non-finite result, a finite one a result within a few ulps (the integer
// powers of a complex are computed by squaring here and by exp/log there).
func agree(got, want complex128) bool {
	if nonFinite(want) {
		return nonFinite(got)
	}
	return cmplx.Abs(got-want) <= 1e-12*math.Max(1, cmplx.Abs(want))
}

// TestScalarNativesMatchInterpreter evaluates every scalar overload of the
// standard library, compiled with fusion on and with fusion off, against the
// interpreter's name[args] at every combination of sample points. Both
// closure configurations build a scalar native from the same evaluator, so
// comparing them with each other shows nothing about the evaluator; the
// interpreter is the independent reference. Native` and Compile` functions
// have no interpreter definition and are left to the C backend's tests.
//
// An integer or boolean overload must print exactly what the interpreter
// prints: that includes overflow, where the compiled call throws and falls
// back. A real or complex overload is compared with N[name[args]] as a
// number; where that is not a machine number (a pole, a complex value of a
// real overload, a symbolic form) the compiled result must be NaN or
// infinite, not a finite value. An instance declared Pure must never throw
// into that fallback: LICM and if-conversion run it speculatively.
//
// Each call is compiled a third time with its sample arguments written in as
// literals, so that FoldConstants calls the native's runtime function at
// compile time: fold = compiled = interpreter. Its result must be the fused
// run-time-argument call's, and where that call throws and falls back this
// one must too (the fold declines). NaN and the infinities have no input
// form; passes.TestFoldingNonFiniteReals folds them.
func TestScalarNativesMatchInterpreter(t *testing.T) {
	k, compilers, levels := fuseLevels()
	var out strings.Builder
	k.Out = &out
	calls, outside, fallbacks := 0, 0, 0
	forEachScalarOverload(t, compilers[0].TypeEnv, func(name string, d *types.FuncDef, sig *types.Fn, fn expr.Expr) {
		if strings.Contains(name, "`") || len(sig.Params) == 0 || sig.Ret == types.TVoid {
			return
		}
		inexact := sig.Ret == types.TReal64 || sig.Ret == types.TComplex
		var ccfs []*core.CompiledCodeFunction
		for _, c := range compilers {
			ccf, err := c.FunctionCompile(fn)
			if err != nil {
				t.Errorf("%s: %v", expr.InputForm(fn), err)
				return
			}
			ccfs = append(ccfs, ccf)
		}
		var walk func(args []expr.Expr)
		walk = func(args []expr.Expr) {
			if i := len(args); i < len(sig.Params) {
				for _, s := range samplePoints[sig.Params[i]] {
					walk(append(args, parser.MustParse(s)))
				}
				return
			}
			if hugeOperand[name] && len(args) == 2 && len(expr.InputForm(args[1])) > 2 {
				return
			}
			call := expr.New(expr.Sym(name), args...)
			ref := call
			if inexact {
				ref = expr.New(expr.Sym("N"), call)
			}
			want, werr := k.Run(ref)
			wantNum, inDomain := complex128(0), false
			if werr == nil && inexact {
				wantNum, inDomain = machineNumber(want)
			}
			calls++
			// The call with its arguments written in as literals, compiled at
			// O2, where FoldConstants sees constants. It runs last, against
			// the run-time-argument results: a fold must give what the
			// compiled call gives, and a call that throws there must survive
			// folding and throw, and fall back, here too.
			lit, err := compilers[0].FunctionCompile(expr.New(expr.SymFunction, expr.New(expr.SymList), call))
			ccfs := ccfs
			if err != nil {
				t.Errorf("%s with literal arguments: %v", expr.InputForm(call), err)
			} else {
				ccfs = append(ccfs, lit)
			}
			levels := append(levels[:len(levels):len(levels)], "literal arguments")
			var results []string
			var fell []bool
			for i, ccf := range ccfs {
				what := fmt.Sprintf("%s (native %s, %s)", expr.InputForm(call), d.Native, levels[i])
				out.Reset()
				callArgs := args
				if ccf == lit {
					callArgs = nil
				}
				got, err := ccf.Apply(callArgs)
				fell = append(fell, strings.Contains(out.String(), "::cfse:"))
				if err != nil {
					results = append(results, "an error")
				} else {
					results = append(results, expr.InputForm(got))
				}
				if ccf == lit {
					if results[i] != results[0] || fell[0] && !fell[i] {
						t.Errorf("%s = %s (fell back %v), with run-time arguments %s (fell back %v)",
							what, results[i], fell[i], results[0], fell[0])
					}
					continue
				}
				if fell[i] {
					fallbacks++
					if types.NativeEffect(d.Native, sig.Ret) == types.Pure {
						t.Errorf("%s: declared Pure, but threw: %s", what, out.String())
					}
				}
				switch {
				case werr != nil:
					// The interpreter rejects the call (division by zero):
					// the compiled call throws and its fallback rejects it too.
					if err == nil {
						t.Errorf("%s = %s, interpreter: %v", what, expr.InputForm(got), werr)
					}
				case err != nil:
					t.Errorf("%s: %v", what, err)
				case !inexact:
					if expr.InputForm(got) != expr.InputForm(want) {
						t.Errorf("%s = %s, interpreter %s", what, expr.InputForm(got), expr.InputForm(want))
					}
				case inDomain:
					if n, ok := machineNumber(got); !ok || !agree(n, wantNum) {
						t.Errorf("%s = %s, interpreter %s", what, expr.InputForm(got), expr.InputForm(want))
					}
				default:
					outside++
					if n, ok := machineNumber(got); !ok || !nonFinite(n) {
						t.Errorf("%s = %s, a finite value where the interpreter has %s", what, expr.InputForm(got), expr.InputForm(want))
					}
				}
			}
		}
		walk(nil)
	})
	if calls < 1000 {
		t.Errorf("only %d calls compared: the walk is not reaching the standard library", calls)
	}
	t.Logf("%d calls compared at both fuse levels and with literal arguments, %d of the results outside the overload's machine domain, %d fallbacks",
		calls, outside, fallbacks)
}

// TestCastsWrapAtEveryWidthBoundary: the width casts are Native` functions,
// so their reference is two's-complement arithmetic itself — the argument
// reduced modulo 2^w, read as signed or unsigned — at each width's boundary
// values and the machine-integer extremes, at both fuse levels.
func TestCastsWrapAtEveryWidthBoundary(t *testing.T) {
	_, compilers, levels := fuseLevels()
	one := big.NewInt(1)
	for _, w := range []uint{8, 16, 32} {
		for _, signed := range []bool{true, false} {
			name := fmt.Sprintf("Native`CastInteger%d", w)
			if !signed {
				name = fmt.Sprintf("Native`CastUnsignedInteger%d", w)
			}
			fn := parser.MustParse(fmt.Sprintf(`Function[{Typed[x, "MachineInteger"]}, %s[x]]`, name))
			half, full := new(big.Int).Lsh(one, w-1), new(big.Int).Lsh(one, w)
			var points []*big.Int
			for _, b := range []*big.Int{big.NewInt(0), half, full, new(big.Int).Neg(half), new(big.Int).Neg(full),
				big.NewInt(math.MaxInt64), big.NewInt(math.MinInt64)} {
				for d := int64(-1); d <= 1; d++ {
					if p := new(big.Int).Add(b, big.NewInt(d)); p.IsInt64() {
						points = append(points, p)
					}
				}
			}
			for i, c := range compilers {
				ccf, err := c.FunctionCompile(fn)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, p := range points {
					want := new(big.Int).Mod(p, full)
					if signed && want.Cmp(half) >= 0 {
						want.Sub(want, full)
					}
					got, err := ccf.Apply([]expr.Expr{expr.FromInt64(p.Int64())})
					if err != nil || expr.InputForm(got) != want.String() {
						t.Errorf("%s[%s] (%s) = %v (%v), want %s", name, p, levels[i], got, err, want)
					}
				}
			}
		}
	}
}

var scalars = []types.Type{types.TInt64, types.TReal64, types.TComplex, types.TBool}

func isScalar(ty types.Type) bool {
	for _, s := range scalars {
		if ty == s {
			return true
		}
	}
	return false
}

// scalarInstances returns every instantiation of a declared type whose
// parameters are all machine scalars: the type itself when monomorphic,
// else one per assignment of scalars to its variables that satisfies the
// class qualifiers.
func scalarInstances(env *types.Env, decl types.Type) []*types.Fn {
	u := types.NewUnifier()
	body, quals := u.Instantiate(decl)
	fn, ok := body.(*types.Fn)
	if !ok {
		return nil
	}
	vars := types.FreeVars(fn)
	var out []*types.Fn
	var assign func(i int)
	assign = func(i int) {
		if i < len(vars) {
			for _, sc := range scalars {
				mark := u.Mark()
				u.Unify(vars[i], sc)
				assign(i + 1)
				u.Undo(mark)
			}
			return
		}
		for _, q := range quals {
			if !env.MemberOf(u.Zonk(q.Var), q.Class) {
				return
			}
		}
		inst := u.Zonk(fn).(*types.Fn)
		for _, p := range inst.Params {
			if !isScalar(p) {
				return
			}
		}
		out = append(out, inst)
	}
	assign(0)
	return out
}
