package kernel

import (
	"cmp"
	"math"
	"math/big"

	"wolfc/internal/expr"
)

// The numeric tower: Integer (machine or big) < Rational < Real < Complex.
// Exact integer arithmetic promotes machine values to big integers on
// overflow, which is the interpreter behaviour compiled code falls back to
// on numeric exceptions (paper §2.2, F2).

// numKind classifies numeric atoms for promotion.
type numKind int

const (
	kindNone numKind = iota
	kindInt
	kindRat
	kindReal
	kindComplex
)

func numKindOf(e expr.Expr) numKind {
	switch e.(type) {
	case *expr.Integer:
		return kindInt
	case *expr.Rational:
		return kindRat
	case *expr.Real:
		return kindReal
	case *expr.Complex:
		return kindComplex
	}
	return kindNone
}

// isNumeric reports whether e is a numeric atom.
func isNumeric(e expr.Expr) bool { return numKindOf(e) != kindNone }

// toFloat converts a numeric atom to float64; ok=false for Complex or
// non-numeric.
func toFloat(e expr.Expr) (float64, bool) {
	switch x := e.(type) {
	case *expr.Integer:
		if x.IsMachine() {
			return float64(x.Int64()), true
		}
		f := new(big.Float).SetInt(x.Big())
		v, _ := f.Float64()
		return v, true
	case *expr.Rational:
		v, _ := x.V.Float64()
		return v, true
	case *expr.Real:
		return x.V, true
	}
	return 0, false
}

// toComplex converts a numeric atom to complex128.
func toComplex(e expr.Expr) (complex128, bool) {
	if c, ok := e.(*expr.Complex); ok {
		return complex(c.Re, c.Im), true
	}
	if f, ok := toFloat(e); ok {
		return complex(f, 0), true
	}
	return 0, false
}

// toRat converts an exact numeric atom to big.Rat.
func toRat(e expr.Expr) (*big.Rat, bool) {
	switch x := e.(type) {
	case *expr.Integer:
		if x.IsMachine() {
			return new(big.Rat).SetInt64(x.Int64()), true
		}
		return new(big.Rat).SetInt(x.Big()), true
	case *expr.Rational:
		return new(big.Rat).Set(x.V), true
	}
	return nil, false
}

// fromComplex normalises a complex result: a zero imaginary part collapses
// to a Real, as the engine does.
func fromComplex(v complex128) expr.Expr {
	if imag(v) == 0 {
		return expr.FromFloat(real(v))
	}
	return expr.FromComplex(real(v), imag(v))
}

// fromRat normalises an exact result.
func fromRat(v *big.Rat) expr.Expr {
	if v.IsInt() {
		return expr.FromBig(v.Num())
	}
	return &expr.Rational{V: new(big.Rat).Set(v)}
}

// Checked machine arithmetic. The kernel uses these to stay in machine
// representation when possible; the compiled-code runtime uses the same
// checks to raise numeric exceptions (internal/runtime mirrors them).

func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func subInt64(a, b int64) (int64, bool) {
	d := a - b
	if (a >= 0 && b < 0 && d < 0) || (a < 0 && b > 0 && d >= 0) {
		return 0, false
	}
	return d, true
}

func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return p, true
}

// numAdd adds two numeric atoms with promotion.
func numAdd(a, b expr.Expr) expr.Expr {
	ka, kb := numKindOf(a), numKindOf(b)
	k := ka
	if kb > k {
		k = kb
	}
	switch k {
	case kindInt:
		x, y := a.(*expr.Integer), b.(*expr.Integer)
		if x.IsMachine() && y.IsMachine() {
			if s, ok := addInt64(x.Int64(), y.Int64()); ok {
				return expr.FromInt64(s)
			}
		}
		return expr.FromBig(new(big.Int).Add(x.Big(), y.Big()))
	case kindRat:
		x, _ := toRat(a)
		y, _ := toRat(b)
		return fromRat(x.Add(x, y))
	case kindReal:
		x, _ := toFloat(a)
		y, _ := toFloat(b)
		return expr.FromFloat(x + y)
	default:
		x, _ := toComplex(a)
		y, _ := toComplex(b)
		return fromComplex(x + y)
	}
}

// numMul multiplies two numeric atoms with promotion.
func numMul(a, b expr.Expr) expr.Expr {
	ka, kb := numKindOf(a), numKindOf(b)
	k := ka
	if kb > k {
		k = kb
	}
	switch k {
	case kindInt:
		x, y := a.(*expr.Integer), b.(*expr.Integer)
		if x.IsMachine() && y.IsMachine() {
			if p, ok := mulInt64(x.Int64(), y.Int64()); ok {
				return expr.FromInt64(p)
			}
		}
		return expr.FromBig(new(big.Int).Mul(x.Big(), y.Big()))
	case kindRat:
		x, _ := toRat(a)
		y, _ := toRat(b)
		return fromRat(x.Mul(x, y))
	case kindReal:
		x, _ := toFloat(a)
		y, _ := toFloat(b)
		return expr.FromFloat(x * y)
	default:
		x, _ := toComplex(a)
		y, _ := toComplex(b)
		return fromComplex(x * y)
	}
}

// numNeg negates a numeric atom.
func numNeg(a expr.Expr) expr.Expr {
	switch x := a.(type) {
	case *expr.Integer:
		if x.IsMachine() && x.Int64() != math.MinInt64 {
			return expr.FromInt64(-x.Int64())
		}
		return expr.FromBig(new(big.Int).Neg(x.Big()))
	case *expr.Rational:
		return fromRat(new(big.Rat).Neg(x.V))
	case *expr.Real:
		return expr.FromFloat(-x.V)
	case *expr.Complex:
		return expr.FromComplex(-x.Re, -x.Im)
	}
	return expr.NewS("Minus", a)
}

// numDivide divides two numeric atoms exactly when possible. Division by
// exact zero returns ComplexInfinity (as a symbol) with ok=false signalling
// the caller to emit a message.
func numDivide(a, b expr.Expr) (expr.Expr, bool) {
	ka, kb := numKindOf(a), numKindOf(b)
	k := ka
	if kb > k {
		k = kb
	}
	switch k {
	case kindInt, kindRat:
		y, _ := toRat(b)
		if y.Sign() == 0 {
			return expr.Sym("ComplexInfinity"), false
		}
		x, _ := toRat(a)
		return fromRat(x.Quo(x, y)), true
	case kindReal:
		x, _ := toFloat(a)
		y, _ := toFloat(b)
		return expr.FromFloat(x / y), true
	default:
		x, _ := toComplex(a)
		y, _ := toComplex(b)
		return fromComplex(x / y), true
	}
}

// maxExactBits bounds the exponent of an exact integer power and the count of
// an exact left shift. math/big polls no abort flag, so a larger operand
// would build a multi-gigabyte integer past any deadline (or panic in
// makeslice); such a call stays unevaluated instead.
const maxExactBits = 1 << 20

// numPower raises base to exponent for numeric atoms. It reports whether a
// numeric result was produced (symbolic residues like x^y stay unevaluated).
func numPower(base, exp expr.Expr) (expr.Expr, bool) {
	// Integer ^ non-negative machine Integer: exact.
	if be, ok := base.(*expr.Integer); ok {
		if ee, ok := exp.(*expr.Integer); ok && ee.IsMachine() {
			n := ee.Int64()
			switch {
			case n == 0:
				return expr.FromInt64(1), true
			case n > 0:
				if n <= 64 && be.IsMachine() {
					// Fast machine path with overflow checking.
					result := int64(1)
					b := be.Int64()
					okAll := true
					for i := int64(0); i < n; i++ {
						var ok bool
						result, ok = mulInt64(result, b)
						if !ok {
							okAll = false
							break
						}
					}
					if okAll {
						return expr.FromInt64(result), true
					}
				}
				if n > maxExactBits {
					return nil, false // refuse absurd exact powers
				}
				return expr.FromBig(new(big.Int).Exp(be.Big(), big.NewInt(n), nil)), true
			default: // negative exponent: exact rational
				if be.Sign() == 0 {
					return expr.Sym("ComplexInfinity"), true
				}
				if n < -maxExactBits {
					return nil, false // the same refusal, for the denominator
				}
				den := new(big.Int).Exp(be.Big(), big.NewInt(-n), nil)
				return expr.Ratio(big.NewInt(1), den), true
			}
		}
	}
	// Rational ^ machine Integer.
	if br, ok := base.(*expr.Rational); ok {
		if ee, ok := exp.(*expr.Integer); ok && ee.IsMachine() {
			n := ee.Int64()
			if n > -1024 && n < 1024 {
				num := new(big.Int).Exp(br.V.Num(), big.NewInt(absI64(n)), nil)
				den := new(big.Int).Exp(br.V.Denom(), big.NewInt(absI64(n)), nil)
				if n >= 0 {
					return expr.Ratio(num, den), true
				}
				return expr.Ratio(den, num), true
			}
		}
	}
	// Real/complex paths.
	if bc, ok := toComplex(base); ok {
		if ec, ok := toComplex(exp); ok {
			if imag(bc) == 0 && imag(ec) == 0 {
				bf, ef := real(bc), real(ec)
				if bf >= 0 || ef == math.Trunc(ef) {
					if numKindOf(base) == kindReal || numKindOf(exp) == kindReal {
						return expr.FromFloat(math.Pow(bf, ef)), true
					}
					return nil, false // exact^exact with big exponent stays symbolic
				}
			}
			if numKindOf(base) == kindReal || numKindOf(exp) == kindReal ||
				numKindOf(base) == kindComplex || numKindOf(exp) == kindComplex {
				return fromComplex(cPow(bc, ec)), true
			}
		}
	}
	return nil, false
}

func cPow(b, e complex128) complex128 {
	if b == 0 {
		if real(e) > 0 {
			return 0
		}
		return complex(math.Inf(1), 0)
	}
	logB := complex(math.Log(cAbs(b)), math.Atan2(imag(b), real(b)))
	p := e * logB
	m := math.Exp(real(p))
	return complex(m*math.Cos(imag(p)), m*math.Sin(imag(p)))
}

func cAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

func absI64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// numCompare compares two numeric atoms: -1, 0, +1. Complex values are only
// comparable for equality (ok=false for ordering). Two integers compare as
// int64s, or as big.Ints when either is big; only a Rational operand builds
// a big.Rat.
func numCompare(a, b expr.Expr) (int, bool) {
	if x, ok := a.(*expr.Integer); ok {
		if y, ok := b.(*expr.Integer); ok {
			if x.IsMachine() && y.IsMachine() {
				return cmp.Compare(x.Int64(), y.Int64()), true
			}
			return x.Big().Cmp(y.Big()), true
		}
	}
	ka, kb := numKindOf(a), numKindOf(b)
	if ka == kindNone || kb == kindNone {
		return 0, false
	}
	if ka == kindComplex || kb == kindComplex {
		return 0, false
	}
	if ka <= kindRat && kb <= kindRat {
		x, _ := toRat(a)
		y, _ := toRat(b)
		return x.Cmp(y), true
	}
	x, _ := toFloat(a)
	y, _ := toFloat(b)
	switch {
	case x < y:
		return -1, true
	case x > y:
		return 1, true
	}
	return 0, true
}

// numEqual tests numeric equality across the tower (1 == 1.0 is True).
func numEqual(a, b expr.Expr) (bool, bool) {
	if c, ok := numCompare(a, b); ok {
		return c == 0, true
	}
	ca, oka := toComplex(a)
	cb, okb := toComplex(b)
	if oka && okb {
		return ca == cb, true
	}
	return false, false
}

// canonicalLess defines the canonical term order used by Orderless heads:
// numbers first (by value), then strings, then symbols, then normals.
func canonicalLess(a, b expr.Expr) bool {
	ra, rb := canonicalRank(a), canonicalRank(b)
	if ra != rb {
		return ra < rb
	}
	switch ra {
	case 0: // numbers by value, exact before inexact on ties
		if c, ok := numCompare(a, b); ok && c != 0 {
			return c < 0
		}
		return numKindOf(a) < numKindOf(b)
	case 1:
		return a.(*expr.String).V < b.(*expr.String).V
	case 2:
		return a.(*expr.Symbol).Name < b.(*expr.Symbol).Name
	default:
		na, nb := a.(*expr.Normal), b.(*expr.Normal)
		if c := compareCanonical(na.Head(), nb.Head()); c != 0 {
			return c < 0
		}
		la, lb := na.Len(), nb.Len()
		for i := 1; i <= la && i <= lb; i++ {
			if c := compareCanonical(na.Arg(i), nb.Arg(i)); c != 0 {
				return c < 0
			}
		}
		return la < lb
	}
}

func canonicalRank(e expr.Expr) int {
	switch e.(type) {
	case *expr.Integer, *expr.Rational, *expr.Real, *expr.Complex:
		return 0
	case *expr.String:
		return 1
	case *expr.Symbol:
		return 2
	}
	return 3
}

func compareCanonical(a, b expr.Expr) int {
	if expr.SameQ(a, b) {
		return 0
	}
	if canonicalLess(a, b) {
		return -1
	}
	return 1
}

// sortCanonical sorts args in place into canonical order, reporting
// whether any element moved. The caller owns args: it must not be the
// argument slice of an expression.
func sortCanonical(args []expr.Expr) bool {
	moved := false
	// Insertion sort keeps this dependency-free and stable.
	for i := 1; i < len(args); i++ {
		for j := i; j > 0 && canonicalLess(args[j], args[j-1]); j-- {
			args[j], args[j-1] = args[j-1], args[j]
			moved = true
		}
	}
	return moved
}
