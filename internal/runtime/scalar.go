package runtime

import (
	"math"
	"slices"
)

// The scalar natives' Go functions: the one place the arithmetic of a scalar
// native of the standard library (types/stdlib.go) is written. The constant
// folder calls a native's function on constant operands, the closure
// backend's evaluators and elementwise tensor maps call it at run time, and
// the operand-mode variants modegen generates call it by name, so the three
// cannot disagree at an edge. A function throws an Exception (an overflow, a
// zero divisor) exactly where its native's library row says Throws. The C
// backend's wolfrt is the other backend's spelling.

// Scalar is one of a native's Go functions. Fn is a func(A) R or a
// func(A, B) R over int64, float64, complex128 and bool; Args and Result are
// the kinds of A, B and R, which an instance's operand and result kinds match.
type Scalar struct {
	Fn     any
	Args   []Kind
	Result Kind
	call   func(args []any) any
}

// Call applies the function to operands of its argument kinds' Go types and
// returns its result.
func (s *Scalar) Call(args []any) any { return s.call(args) }

// ScalarOf returns native's function at the given result and operand kinds,
// or nil when it has none there: the native is not a scalar native, or not at
// these kinds.
func ScalarOf(native string, result Kind, args ...Kind) *Scalar {
	fns := scalars[native]
	for i := range fns {
		if fns[i].Result == result && slices.Equal(fns[i].Args, args) {
			return &fns[i]
		}
	}
	return nil
}

// scalarKind is the kind of a Go scalar type.
func scalarKind[T any]() Kind {
	switch any(*new(T)).(type) {
	case int64:
		return KI64
	case float64:
		return KR64
	case complex128:
		return KC64
	case bool:
		return KBool
	}
	panic("runtime: a scalar native's operand is not a machine scalar")
}

func fn1[A, R any](f func(A) R) Scalar {
	return Scalar{Fn: f, Args: []Kind{scalarKind[A]()}, Result: scalarKind[R](),
		call: func(a []any) any { return f(a[0].(A)) }}
}

func fn2[A, B, R any](f func(A, B) R) Scalar {
	return Scalar{Fn: f, Args: []Kind{scalarKind[A](), scalarKind[B]()}, Result: scalarKind[R](),
		call: func(a []any) any { return f(a[0].(A), a[1].(B)) }}
}

// The mixed-width natives promote as the engine's arithmetic tower does: ri
// and ir widen the Integer64 operand of a real function, rc and cr the Real64
// operand of a complex one, and ofInt the argument of an elementary function.
func ri[R any](f func(a, b float64) R) Scalar {
	return fn2(func(a float64, b int64) R { return f(a, float64(b)) })
}

func ir[R any](f func(a, b float64) R) Scalar {
	return fn2(func(a int64, b float64) R { return f(float64(a), b) })
}

func rc(f func(a, b complex128) complex128) Scalar {
	return fn2(func(a float64, b complex128) complex128 { return f(complex(a, 0), b) })
}

func cr(f func(a, b complex128) complex128) Scalar {
	return fn2(func(a complex128, b float64) complex128 { return f(a, complex(b, 0)) })
}

func ofInt(f func(float64) float64) Scalar {
	return fn1(func(a int64) float64 { return f(float64(a)) })
}

// scalars is keyed by native name.
var scalars = func() map[string][]Scalar {
	addC := func(a, b complex128) complex128 { return a + b }
	subC := func(a, b complex128) complex128 { return a - b }
	mulC := func(a, b complex128) complex128 { return a * b }
	pow := func(a, b float64) float64 { return math.Pow(a, b) }
	m := map[string][]Scalar{
		"binary_plus":       {fn2(AddI64), fn2(AddF64), fn2(addC)},
		"binary_subtract":   {fn2(SubI64), fn2(SubF64), fn2(subC)},
		"binary_times":      {fn2(MulI64), fn2(MulF64), fn2(mulC)},
		"binary_divide":     {fn2(DivF64), fn2(func(a, b complex128) complex128 { return a / b })},
		"unary_minus":       {fn1(NegI64), fn1(func(a float64) float64 { return -a }), fn1(func(a complex128) complex128 { return -a })},
		"divide_int_real":   {fn2(func(a, b int64) float64 { return float64(a) / float64(b) })},
		"power_int":         {fn2(PowI64)},
		"power_real":        {fn2(pow)},
		"power_real_int":    {ri(pow)},
		"power_complex":     {fn2(PowC)},
		"power_complex_int": {fn2(PowCInt)},
		"mod_int":           {fn2(ModI64)},
		"mod_real":          {fn2(ModF64)},
		"quotient_int":      {fn2(QuotI64)},
		"abs_int":           {fn1(AbsI64)},
		"abs_real":          {fn1(math.Abs)},
		"abs_complex":       {fn1(AbsC)},
		"min":               {fn2(minOf[int64]), fn2(minOf[float64])},
		"max":               {fn2(maxOf[int64]), fn2(maxOf[float64])},
		"sign_int":          {fn1(sign[int64])},
		"sign_real":         {fn1(sign[float64])},
		"identity_int":      {fn1(func(a int64) int64 { return a })},
		"floor_real":        {fn1(func(x float64) int64 { return RealToI64(math.Floor(x)) })},
		"ceiling_real":      {fn1(func(x float64) int64 { return RealToI64(math.Ceil(x)) })},
		"round_real":        {fn1(func(x float64) int64 { return RealToI64(math.RoundToEven(x)) })},
		"bitand":            {fn2(AndI64)},
		"bitor":             {fn2(OrI64)},
		"bitxor":            {fn2(XorI64)},
		"bitshiftleft":      {fn2(ShlI64)},
		"bitshiftright":     {fn2(ShrI64)},
		"math_atan2":        {fn2(func(x, y float64) float64 { return math.Atan2(y, x) })},
		"re":                {fn1(func(z complex128) float64 { return real(z) })},
		"im":                {fn1(func(z complex128) float64 { return imag(z) })},
		"make_complex":      {fn2(func(re, im float64) complex128 { return complex(re, im) })},
		"to_real64":         {fn1(func(a int64) float64 { return float64(a) }), fn1(func(a float64) float64 { return a })},
		"evenq":             {fn1(func(a int64) bool { return a%2 == 0 })},
		"oddq":              {fn1(func(a int64) bool { return a%2 != 0 })},
		"not":               {fn1(func(a bool) bool { return !a })},
		// Eager: if-conversion builds these over speculatable operands only.
		"and":        {fn2(func(a, b bool) bool { return a && b })},
		"or":         {fn2(func(a, b bool) bool { return a || b })},
		"sameq_bool": {fn2(equal[bool])},
	}
	for op, f := range map[string]func(a, b float64) float64{"plus": AddF64, "subtract": SubF64, "times": MulF64, "divide": DivF64} {
		m["mixed_ri_"+op], m["mixed_ir_"+op] = []Scalar{ri(f)}, []Scalar{ir(f)}
	}
	for op, f := range map[string]func(a, b complex128) complex128{"plus": addC, "subtract": subC, "times": mulC} {
		m["mixed_cr_"+op], m["mixed_rc_"+op] = []Scalar{cr(f)}, []Scalar{rc(f)}
	}
	ints := map[string]func(a, b int64) bool{"less": LessI64, "lessequal": LessEqualI64, "greater": GreaterI64,
		"greaterequal": GreaterEqualI64, "equal": EqualI64, "unequal": UnequalI64}
	reals := map[string]func(a, b float64) bool{"less": LessF64, "lessequal": LessEqualF64, "greater": GreaterF64,
		"greaterequal": GreaterEqualF64, "equal": EqualF64, "unequal": UnequalF64}
	for op := range ints {
		m["cmp_"+op] = []Scalar{fn2(ints[op]), fn2(reals[op])}
		m["mixed_ri_cmp_"+op], m["mixed_ir_cmp_"+op] = []Scalar{ri(reals[op])}, []Scalar{ir(reals[op])}
	}
	m["cmp_equal"] = append(m["cmp_equal"], fn2(equal[complex128]), fn2(equal[bool]))
	m["cmp_unequal"] = append(m["cmp_unequal"], fn2(unequal[complex128]), fn2(unequal[bool]))
	for name, f := range map[string]func(float64) float64{"sin": math.Sin, "cos": math.Cos, "tan": math.Tan,
		"exp": math.Exp, "log": math.Log, "sqrt": math.Sqrt, "arctan": math.Atan, "arcsin": math.Asin, "arccos": math.Acos} {
		m["math_"+name], m["math_"+name+"_int"] = []Scalar{fn1(f)}, []Scalar{ofInt(f)}
	}
	return m
}()

// The operations modegen's operand-mode variants call by name, beside AddI64,
// SubI64, MulI64, ModI64 and QuotI64: each inlines (verify.sh checks), so a
// loop's arithmetic and compares are not calls.

func AddF64(a, b float64) float64       { return a + b }
func SubF64(a, b float64) float64       { return a - b }
func MulF64(a, b float64) float64       { return a * b }
func DivF64(a, b float64) float64       { return a / b }
func AndI64(a, b int64) int64           { return a & b }
func OrI64(a, b int64) int64            { return a | b }
func XorI64(a, b int64) int64           { return a ^ b }
func LessI64(a, b int64) bool           { return a < b }
func LessEqualI64(a, b int64) bool      { return a <= b }
func GreaterI64(a, b int64) bool        { return a > b }
func GreaterEqualI64(a, b int64) bool   { return a >= b }
func EqualI64(a, b int64) bool          { return a == b }
func UnequalI64(a, b int64) bool        { return a != b }
func LessF64(a, b float64) bool         { return a < b }
func LessEqualF64(a, b float64) bool    { return a <= b }
func GreaterF64(a, b float64) bool      { return a > b }
func GreaterEqualF64(a, b float64) bool { return a >= b }
func EqualF64(a, b float64) bool        { return a == b }
func UnequalF64(a, b float64) bool      { return a != b }

// ShrLitI64 is the right shift by a literal count in [0, 63] that compiled
// code selects for Quotient by a power of two.
func ShrLitI64(a, n int64) int64 { return a >> uint64(n) }

// AbsI64 is the checked absolute value: |MinInt64| does not fit.
func AbsI64(a int64) int64 {
	if a < 0 {
		return NegI64(a)
	}
	return a
}

// ModF64 is Mod of reals: the remainder's sign follows the modulus.
func ModF64(a, m float64) float64 {
	r := math.Mod(a, m)
	if r != 0 && (r < 0) != (m < 0) {
		r += m
	}
	return r
}

// minOf and maxOf decide by the one compare a < b; with a NaN operand it is
// false, so minOf returns b and maxOf a.
func minOf[T int64 | float64](a, b T) T {
	if a < b {
		return a
	}
	return b
}

func maxOf[T int64 | float64](a, b T) T {
	if a < b {
		return b
	}
	return a
}

func sign[T int64 | float64](a T) int64 {
	switch {
	case a > 0:
		return 1
	case a < 0:
		return -1
	}
	return 0
}

func equal[T comparable](a, b T) bool   { return a == b }
func unequal[T comparable](a, b T) bool { return a != b }
