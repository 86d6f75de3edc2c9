package kernel

import (
	"math"
	"math/big"

	"wolfc/internal/expr"
)

func (k *Kernel) installMath() {
	k.Register("Plus", Flat|Orderless|Listable|NumericFunction, biPlus)
	k.Register("Times", Flat|Orderless|Listable|NumericFunction, biTimes)
	k.Register("Power", Listable|NumericFunction, biPower)
	k.Register("Subtract", Listable, biSubtract)
	k.Register("Divide", Listable, biDivide)
	k.Register("Minus", Listable, biMinus)
	k.Register("Equal", 0, compareChain("Equal", func(c int) bool { return c == 0 }))
	k.Register("Unequal", 0, biUnequal)
	k.Register("Less", 0, compareChain("Less", func(c int) bool { return c < 0 }))
	k.Register("LessEqual", 0, compareChain("LessEqual", func(c int) bool { return c <= 0 }))
	k.Register("Greater", 0, compareChain("Greater", func(c int) bool { return c > 0 }))
	k.Register("GreaterEqual", 0, compareChain("GreaterEqual", func(c int) bool { return c >= 0 }))
	k.Register("SameQ", 0, biSameQ)
	k.Register("UnsameQ", 0, biUnsameQ)
	k.Register("Min", Flat|Orderless|NumericFunction, biMin)
	k.Register("Max", Flat|Orderless|NumericFunction, biMax)
	k.Register("Abs", Listable|NumericFunction, biAbs)
	k.Register("Sign", Listable|NumericFunction, biSign)
	k.Register("Floor", Listable|NumericFunction, biFloor)
	k.Register("Ceiling", Listable|NumericFunction, biCeiling)
	k.Register("Round", Listable|NumericFunction, biRound)
	k.Register("Mod", Listable|NumericFunction, biMod)
	k.Register("Quotient", Listable|NumericFunction, biQuotient)
	k.Register("GCD", Flat|Orderless|Listable, biGCD)
	k.Register("Factorial", Listable|NumericFunction, biFactorial)
	k.Register("Sqrt", Listable|NumericFunction, realFunc1("Sqrt", math.Sqrt))
	k.Register("Exp", Listable|NumericFunction, realFunc1("Exp", math.Exp))
	k.Register("Log", Listable|NumericFunction, biLog)
	k.Register("Sin", Listable|NumericFunction, realFunc1("Sin", math.Sin))
	k.Register("Cos", Listable|NumericFunction, realFunc1("Cos", math.Cos))
	k.Register("Tan", Listable|NumericFunction, realFunc1("Tan", math.Tan))
	k.Register("ArcSin", Listable|NumericFunction, realFunc1("ArcSin", math.Asin))
	k.Register("ArcCos", Listable|NumericFunction, realFunc1("ArcCos", math.Acos))
	k.Register("ArcTan", Listable|NumericFunction, biArcTan)
	k.Register("N", 0, biN)
	k.Register("IntegerQ", 0, typePred(func(e expr.Expr) bool { _, ok := e.(*expr.Integer); return ok }))
	k.Register("StringQ", 0, typePred(func(e expr.Expr) bool { _, ok := e.(*expr.String); return ok }))
	k.Register("NumberQ", 0, typePred(isNumeric))
	k.Register("NumericQ", 0, typePred(isNumeric))
	k.Register("ListQ", 0, typePred(func(e expr.Expr) bool {
		_, ok := expr.IsNormal(e, expr.SymList)
		return ok
	}))
	k.Register("AtomQ", 0, typePred(expr.IsAtom))
	k.Register("EvenQ", 0, parityPred(0))
	k.Register("OddQ", 0, parityPred(1))
	k.Register("Positive", 0, signPred(func(c int) bool { return c > 0 }))
	k.Register("Negative", 0, signPred(func(c int) bool { return c < 0 }))
	k.Register("NonNegative", 0, signPred(func(c int) bool { return c >= 0 }))
	k.Register("PrimeQ", Listable, biPrimeQ)
	k.Register("Head", 0, biHead)
	k.Register("RandomReal", 0, biRandomReal)
	k.Register("RandomInteger", 0, biRandomInteger)
	k.Register("RandomVariate", 0, biRandomVariate)
	k.Register("SeedRandom", 0, biSeedRandom)
	k.Register("Boole", Listable, biBoole)
	k.Register("BitAnd", Flat|Orderless|Listable, bitOp(func(a, b int64) int64 { return a & b }, -1))
	k.Register("BitOr", Flat|Orderless|Listable, bitOp(func(a, b int64) int64 { return a | b }, 0))
	k.Register("BitXor", Flat|Orderless|Listable, bitOp(func(a, b int64) int64 { return a ^ b }, 0))
	k.Register("BitShiftLeft", Listable, biShiftLeft)
	k.Register("BitShiftRight", Listable, biShiftRight)
	k.Register("IntegerPart", Listable, biIntegerPart)
	k.Register("FractionalPart", Listable, biFractionalPart)
	k.Register("Chop", 0, biChop)
	k.Register("Complex", 0, biComplex)
	k.Register("Re", Listable, biRe)
	k.Register("Im", Listable, biIm)
}

func biComplex(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	re, ok1 := toFloat(n.Arg(1))
	im, ok2 := toFloat(n.Arg(2))
	if !ok1 || !ok2 {
		return n, false
	}
	if im == 0 {
		// Complex[x, 0] stays complex only for machine reals in the engine;
		// keep the atom for type fidelity.
		return expr.FromComplex(re, 0), true
	}
	return expr.FromComplex(re, im), true
}

func biRe(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	switch x := n.Arg(1).(type) {
	case *expr.Complex:
		return expr.FromFloat(x.Re), true
	case *expr.Integer, *expr.Real, *expr.Rational:
		return x, true
	}
	return n, false
}

func biIm(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	switch x := n.Arg(1).(type) {
	case *expr.Complex:
		return expr.FromFloat(x.Im), true
	case *expr.Integer, *expr.Real, *expr.Rational:
		return expr.FromInt64(0), true
	}
	return n, false
}

func biPlus(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	return foldNumeric(n, expr.FromInt64(0), numAdd, func(acc expr.Expr) bool {
		i, ok := acc.(*expr.Integer)
		return ok && i.IsMachine() && i.Int64() == 0
	})
}

func biTimes(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	// 0 * anything = 0 (for exact zero).
	for _, a := range n.Args() {
		if i, ok := a.(*expr.Integer); ok && i.Sign() == 0 && i.IsMachine() {
			return expr.FromInt64(0), true
		}
	}
	return foldNumeric(n, expr.FromInt64(1), numMul, func(acc expr.Expr) bool {
		i, ok := acc.(*expr.Integer)
		return ok && i.IsMachine() && i.Int64() == 1
	})
}

// foldNumeric folds the numeric arguments of an n-ary Flat Orderless
// operation, keeping symbolic residues. isIdentity reports whether the
// folded constant is the operation's identity and can be dropped.
func foldNumeric(n *expr.Normal, id expr.Expr,
	op func(a, b expr.Expr) expr.Expr, isIdentity func(expr.Expr) bool) (expr.Expr, bool) {
	acc := id
	numCount := 0
	var residue []expr.Expr
	for _, a := range n.Args() {
		if isNumeric(a) {
			acc = op(acc, a)
			numCount++
		} else {
			residue = append(residue, a)
		}
	}
	if len(residue) == 0 {
		return acc, true
	}
	var args []expr.Expr
	if !isIdentity(acc) {
		args = append(args, acc)
	}
	args = append(args, residue...)
	if len(args) == 1 {
		return args[0], true
	}
	out := n.WithArgs(args...)
	return out, !expr.SameQ(out, n)
}

func biPower(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	base, exp := n.Arg(1), n.Arg(2)
	if e, ok := exp.(*expr.Integer); ok && e.IsMachine() {
		switch e.Int64() {
		case 0:
			return expr.FromInt64(1), true
		case 1:
			return base, true
		}
	}
	if out, ok := numPower(base, exp); ok {
		return out, true
	}
	return n, false
}

func biSubtract(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	return expr.NewS("Plus", n.Arg(1), expr.NewS("Times", expr.FromInt64(-1), n.Arg(2))), true
}

func biDivide(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	a, b := n.Arg(1), n.Arg(2)
	if isNumeric(a) && isNumeric(b) {
		out, ok := numDivide(a, b)
		if !ok {
			k.message("Power", "infy", "Infinite expression 1/0 encountered.")
		}
		return out, true
	}
	return expr.NewS("Times", a, expr.NewS("Power", b, expr.FromInt64(-1))), true
}

func biMinus(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if isNumeric(n.Arg(1)) {
		return numNeg(n.Arg(1)), true
	}
	return expr.NewS("Times", expr.FromInt64(-1), n.Arg(1)), true
}

// compareChain builds an n-ary comparison: every adjacent pair must satisfy
// pred; any incomparable pair leaves the expression unevaluated.
func compareChain(name string, pred func(int) bool) Builtin {
	return func(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() < 2 {
			return expr.SymTrue, true
		}
		for i := 1; i < n.Len(); i++ {
			a, b := n.Arg(i), n.Arg(i+1)
			if name == "Equal" {
				if eq, ok := equalValues(a, b); ok {
					if !eq {
						return expr.SymFalse, true
					}
					continue
				}
				return n, false
			}
			c, ok := numCompare(a, b)
			if !ok {
				return n, false
			}
			if !pred(c) {
				return expr.SymFalse, true
			}
		}
		return expr.SymTrue, true
	}
}

// equalValues implements Equal across numbers, strings, booleans, and
// structurally identical expressions.
func equalValues(a, b expr.Expr) (bool, bool) {
	if eq, ok := numEqual(a, b); ok {
		return eq, true
	}
	sa, okA := a.(*expr.String)
	sb, okB := b.(*expr.String)
	if okA && okB {
		return sa.V == sb.V, true
	}
	if expr.SameQ(a, b) {
		return true, true
	}
	// Distinct atoms of comparable kinds are decidedly unequal.
	if expr.IsAtom(a) && expr.IsAtom(b) {
		_, symA := a.(*expr.Symbol)
		_, symB := b.(*expr.Symbol)
		if !symA && !symB {
			return false, true
		}
		if ta, okT := expr.TruthValue(a); okT {
			if tb, okT2 := expr.TruthValue(b); okT2 {
				return ta == tb, true
			}
		}
	}
	return false, false
}

func biUnequal(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	if eq, ok := equalValues(n.Arg(1), n.Arg(2)); ok {
		return expr.Bool(!eq), true
	}
	return n, false
}

func biSameQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	for i := 1; i < n.Len(); i++ {
		if !expr.SameQ(n.Arg(i), n.Arg(i+1)) {
			return expr.SymFalse, true
		}
	}
	return expr.SymTrue, true
}

func biUnsameQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	for i := 1; i <= n.Len(); i++ {
		for j := i + 1; j <= n.Len(); j++ {
			if expr.SameQ(n.Arg(i), n.Arg(j)) {
				return expr.SymFalse, true
			}
		}
	}
	return expr.SymTrue, true
}

// minMax folds Min/Max over numeric arguments, flattening lists (Min and Max
// accept list arguments in the language).
func minMax(k *Kernel, n *expr.Normal, wantLess bool) (expr.Expr, bool) {
	var best expr.Expr
	var residue []expr.Expr
	var visit func(e expr.Expr) bool
	visit = func(e expr.Expr) bool {
		if l, ok := expr.IsNormal(e, expr.SymList); ok {
			for _, a := range l.Args() {
				if !visit(a) {
					return false
				}
			}
			return true
		}
		if !isNumeric(e) {
			residue = append(residue, e)
			return true
		}
		if best == nil {
			best = e
			return true
		}
		c, ok := numCompare(e, best)
		if !ok {
			residue = append(residue, e)
			return true
		}
		if (wantLess && c < 0) || (!wantLess && c > 0) {
			best = e
		}
		return true
	}
	for _, a := range n.Args() {
		visit(a)
	}
	if len(residue) > 0 {
		// Symbolic residues keep the expression unevaluated unless lists
		// were flattened away.
		args := residue
		if best != nil {
			args = append([]expr.Expr{best}, residue...)
		}
		out := n.WithArgs(args...)
		return out, !expr.SameQ(out, n)
	}
	if best == nil {
		if wantLess {
			return expr.NewS("DirectedInfinity", expr.FromInt64(1)), true
		}
		return expr.NewS("DirectedInfinity", expr.FromInt64(-1)), true
	}
	return best, true
}

func biMin(k *Kernel, n *expr.Normal) (expr.Expr, bool) { return minMax(k, n, true) }
func biMax(k *Kernel, n *expr.Normal) (expr.Expr, bool) { return minMax(k, n, false) }

func biAbs(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	switch x := n.Arg(1).(type) {
	case *expr.Integer:
		if x.Sign() >= 0 {
			return x, true
		}
		return numNeg(x), true
	case *expr.Rational:
		if x.V.Sign() >= 0 {
			return x, true
		}
		return numNeg(x), true
	case *expr.Real:
		return expr.FromFloat(math.Abs(x.V)), true
	case *expr.Complex:
		return expr.FromFloat(cAbs(complex(x.Re, x.Im))), true
	}
	return n, false
}

func biSign(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	switch x := n.Arg(1).(type) {
	case *expr.Integer:
		return expr.FromInt64(int64(x.Sign())), true
	case *expr.Rational:
		return expr.FromInt64(int64(x.V.Sign())), true
	case *expr.Real:
		switch {
		case x.V > 0:
			return expr.FromInt64(1), true
		case x.V < 0:
			return expr.FromInt64(-1), true
		}
		return expr.FromInt64(0), true
	}
	return n, false
}

func roundToInt(k *Kernel, e expr.Expr, mode func(float64) float64,
	exact func(*big.Rat) *big.Int) (expr.Expr, bool) {
	switch x := e.(type) {
	case *expr.Integer:
		return x, true
	case *expr.Rational:
		return expr.FromBig(exact(x.V)), true
	case *expr.Real:
		v := mode(x.V)
		if math.Abs(v) < 1e18 {
			return expr.FromInt64(int64(v)), true
		}
		bf := new(big.Float).SetFloat64(v)
		bi, _ := bf.Int(nil)
		return expr.FromBig(bi), true
	}
	return nil, false
}

func ratFloor(r *big.Rat) *big.Int {
	q := new(big.Int)
	m := new(big.Int)
	q.DivMod(r.Num(), r.Denom(), m)
	return q
}

func ratCeil(r *big.Rat) *big.Int {
	q := ratFloor(r)
	if new(big.Rat).SetInt(q).Cmp(r) != 0 {
		q.Add(q, big.NewInt(1))
	}
	return q
}

func biFloor(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if out, ok := roundToInt(k, n.Arg(1), math.Floor, ratFloor); ok {
		return out, true
	}
	return n, false
}

func biCeiling(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if out, ok := roundToInt(k, n.Arg(1), math.Ceil, ratCeil); ok {
		return out, true
	}
	return n, false
}

func biRound(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if out, ok := roundToInt(k, n.Arg(1), math.RoundToEven, func(r *big.Rat) *big.Int {
		f, _ := r.Float64()
		return big.NewInt(int64(math.RoundToEven(f)))
	}); ok {
		return out, true
	}
	return n, false
}

func biMod(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	a, okA := n.Arg(1).(*expr.Integer)
	m, okM := n.Arg(2).(*expr.Integer)
	if okA && okM {
		if m.Sign() == 0 {
			k.errorf("Mod: division by zero")
		}
		if a.IsMachine() && m.IsMachine() {
			r := a.Int64() % m.Int64()
			if r != 0 && (r < 0) != (m.Int64() < 0) {
				r += m.Int64()
			}
			return expr.FromInt64(r), true
		}
		r := new(big.Int).Mod(a.Big(), m.Big()) // Euclidean for positive modulus
		if m.Sign() < 0 && r.Sign() != 0 {
			r.Add(r, m.Big())
		}
		return expr.FromBig(r), true
	}
	af, okA2 := toFloat(n.Arg(1))
	mf, okM2 := toFloat(n.Arg(2))
	if okA2 && okM2 && mf != 0 {
		r := math.Mod(af, mf)
		if r != 0 && (r < 0) != (mf < 0) {
			r += mf
		}
		return expr.FromFloat(r), true
	}
	return n, false
}

func biQuotient(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	a, okA := n.Arg(1).(*expr.Integer)
	m, okM := n.Arg(2).(*expr.Integer)
	if okA && okM {
		if m.Sign() == 0 {
			k.errorf("Quotient: division by zero")
		}
		q := new(big.Int)
		r := new(big.Int)
		q.QuoRem(a.Big(), m.Big(), r)
		// Floor semantics.
		if r.Sign() != 0 && (r.Sign() < 0) != (m.Sign() < 0) {
			q.Sub(q, big.NewInt(1))
		}
		return expr.FromBig(q), true
	}
	return n, false
}

func biGCD(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	acc := big.NewInt(0)
	for _, a := range n.Args() {
		i, ok := a.(*expr.Integer)
		if !ok {
			return n, false
		}
		acc.GCD(nil, nil, acc, new(big.Int).Abs(i.Big()))
	}
	return expr.FromBig(acc), true
}

func biFactorial(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	i, ok := n.Arg(1).(*expr.Integer)
	if !ok || !i.IsMachine() || i.Int64() < 0 {
		return n, false
	}
	v := i.Int64()
	if v > 100_000 {
		k.errorf("Factorial: argument %d too large", v)
	}
	out := new(big.Int).MulRange(1, v)
	return expr.FromBig(out), true
}

// realFunc1 wraps a float64 elementary function: it evaluates for Real
// arguments (and exact zero), staying symbolic otherwise.
func realFunc1(name string, f func(float64) float64) Builtin {
	return func(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		switch x := n.Arg(1).(type) {
		case *expr.Real:
			return expr.FromFloat(f(x.V)), true
		case *expr.Integer:
			if x.IsMachine() && x.Int64() == 0 {
				v := f(0)
				if v == math.Trunc(v) {
					return expr.FromInt64(int64(v)), true
				}
			}
			// Sqrt of perfect squares is exact.
			if name == "Sqrt" && x.Sign() >= 0 {
				r := new(big.Int).Sqrt(x.Big())
				if new(big.Int).Mul(r, r).Cmp(x.Big()) == 0 {
					return expr.FromBig(r), true
				}
			}
		}
		return n, false
	}
}

func biLog(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	switch n.Len() {
	case 1:
		if x, ok := n.Arg(1).(*expr.Real); ok {
			return expr.FromFloat(math.Log(x.V)), true
		}
		if x, ok := n.Arg(1).(*expr.Integer); ok && x.IsMachine() && x.Int64() == 1 {
			return expr.FromInt64(0), true
		}
		if s, ok := n.Arg(1).(*expr.Symbol); ok && s.Name == "E" {
			return expr.FromInt64(1), true
		}
	case 2: // Log[b, x]
		bf, ok1 := toFloat(n.Arg(1))
		xf, ok2 := toFloat(n.Arg(2))
		if ok1 && ok2 && (numKindOf(n.Arg(1)) == kindReal || numKindOf(n.Arg(2)) == kindReal) {
			return expr.FromFloat(math.Log(xf) / math.Log(bf)), true
		}
	}
	return n, false
}

func biArcTan(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	switch n.Len() {
	case 1:
		if x, ok := n.Arg(1).(*expr.Real); ok {
			return expr.FromFloat(math.Atan(x.V)), true
		}
		if x, ok := n.Arg(1).(*expr.Integer); ok && x.IsMachine() && x.Int64() == 0 {
			return expr.FromInt64(0), true
		}
	case 2: // ArcTan[x, y] = atan2(y, x)
		xf, ok1 := toFloat(n.Arg(1))
		yf, ok2 := toFloat(n.Arg(2))
		if ok1 && ok2 && (numKindOf(n.Arg(1)) == kindReal || numKindOf(n.Arg(2)) == kindReal) {
			return expr.FromFloat(math.Atan2(yf, xf)), true
		}
	}
	return n, false
}

// biN numericises an expression: exact numbers become Reals, known constants
// take their values, and the result is re-evaluated.
func biN(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	out := expr.Replace(n.Arg(1), func(e expr.Expr) expr.Expr {
		switch x := e.(type) {
		case *expr.Integer:
			f, _ := toFloat(x)
			return expr.FromFloat(f)
		case *expr.Rational:
			f, _ := toFloat(x)
			return expr.FromFloat(f)
		case *expr.Symbol:
			switch x.Name {
			case "Pi":
				return expr.FromFloat(math.Pi)
			case "E":
				return expr.FromFloat(math.E)
			case "GoldenRatio":
				return expr.FromFloat(math.Phi)
			case "Degree":
				return expr.FromFloat(math.Pi / 180)
			}
		}
		return e
	})
	return k.Eval(out), true
}

func typePred(f func(expr.Expr) bool) Builtin {
	return func(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		return expr.Bool(f(n.Arg(1))), true
	}
}

func parityPred(want int64) Builtin {
	return func(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		i, ok := n.Arg(1).(*expr.Integer)
		if !ok {
			return expr.SymFalse, true
		}
		m := new(big.Int).Mod(i.Big(), big.NewInt(2))
		return expr.Bool(m.Int64() == want), true
	}
}

func signPred(pred func(int) bool) Builtin {
	return func(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		c, ok := numCompare(n.Arg(1), expr.FromInt64(0))
		if !ok {
			return n, false
		}
		return expr.Bool(pred(c)), true
	}
}

func biPrimeQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	i, ok := n.Arg(1).(*expr.Integer)
	if !ok {
		return expr.SymFalse, true
	}
	v := new(big.Int).Abs(i.Big())
	return expr.Bool(v.ProbablyPrime(16)), true
}

func biHead(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	return n.Arg(1).Head(), true
}

func biRandomReal(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	lo, hi := 0.0, 1.0
	var dims expr.Expr
	switch n.Len() {
	case 0:
	case 2:
		dims = n.Arg(2)
		fallthrough
	case 1:
		switch spec := n.Arg(1).(type) {
		case *expr.Real, *expr.Integer, *expr.Rational:
			f, _ := toFloat(spec)
			hi = f
		case *expr.Normal:
			if l, ok := expr.IsNormalN(spec, expr.SymList, 2); ok {
				f1, ok1 := toFloat(l.Arg(1))
				f2, ok2 := toFloat(l.Arg(2))
				if !ok1 || !ok2 {
					return n, false
				}
				lo, hi = f1, f2
			} else {
				return n, false
			}
		default:
			return n, false
		}
	default:
		return n, false
	}
	gen := func() expr.Expr { return expr.FromFloat(lo + k.rng.Float64()*(hi-lo)) }
	return k.randomArray(gen, dims), true
}

func biRandomInteger(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	lo, hi := int64(0), int64(1)
	var dims expr.Expr
	switch n.Len() {
	case 0:
	case 2:
		dims = n.Arg(2)
		fallthrough
	case 1:
		switch spec := n.Arg(1).(type) {
		case *expr.Integer:
			if !spec.IsMachine() {
				return n, false
			}
			hi = spec.Int64()
		case *expr.Normal:
			if l, ok := expr.IsNormalN(spec, expr.SymList, 2); ok {
				i1, ok1 := l.Arg(1).(*expr.Integer)
				i2, ok2 := l.Arg(2).(*expr.Integer)
				if !ok1 || !ok2 || !i1.IsMachine() || !i2.IsMachine() {
					return n, false
				}
				lo, hi = i1.Int64(), i2.Int64()
			} else {
				return n, false
			}
		default:
			return n, false
		}
	default:
		return n, false
	}
	gen := func() expr.Expr { return expr.FromInt64(lo + k.rng.Int63n(hi-lo+1)) }
	return k.randomArray(gen, dims), true
}

func biRandomVariate(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 1 || n.Len() > 2 {
		return n, false
	}
	dist, ok := n.Arg(1).(*expr.Normal)
	if !ok {
		return n, false
	}
	var gen func() expr.Expr
	if h, ok := dist.Head().(*expr.Symbol); ok {
		switch h.Name {
		case "NormalDistribution":
			mu, sigma := 0.0, 1.0
			if dist.Len() == 2 {
				mu, _ = toFloat(dist.Arg(1))
				sigma, _ = toFloat(dist.Arg(2))
			}
			gen = func() expr.Expr { return expr.FromFloat(mu + sigma*k.rng.NormFloat64()) }
		case "UniformDistribution":
			gen = func() expr.Expr { return expr.FromFloat(k.rng.Float64()) }
		}
	}
	if gen == nil {
		return n, false
	}
	var dims expr.Expr
	if n.Len() == 2 {
		dims = n.Arg(2)
	}
	return k.randomArray(gen, dims), true
}

// randomArray builds a scalar, vector, or arbitrary-rank array of samples
// according to dims (nil = scalar, integer = vector, {d1, d2, ...} = array).
func (k *Kernel) randomArray(gen func() expr.Expr, dims expr.Expr) expr.Expr {
	if dims == nil {
		return gen()
	}
	if i, ok := dims.(*expr.Integer); ok && i.IsMachine() {
		out := make([]expr.Expr, i.Int64())
		for j := range out {
			out[j] = gen()
		}
		return expr.List(out...)
	}
	if l, ok := expr.IsNormal(dims, expr.SymList); ok {
		if l.Len() == 0 {
			return gen()
		}
		first := l.Arg(1)
		rest := expr.List(l.Args()[1:]...)
		fi, ok := first.(*expr.Integer)
		if !ok || !fi.IsMachine() {
			k.errorf("random: bad dimension %s", expr.InputForm(first))
		}
		out := make([]expr.Expr, fi.Int64())
		for j := range out {
			if l.Len() == 1 {
				out[j] = gen()
			} else {
				out[j] = k.randomArray(gen, rest)
			}
		}
		return expr.List(out...)
	}
	k.errorf("random: bad dimension spec %s", expr.InputForm(dims))
	return nil
}

func biSeedRandom(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if i, ok := n.Arg(1).(*expr.Integer); ok && i.IsMachine() {
		k.Seed(i.Int64())
		return expr.SymNull, true
	}
	return n, false
}

func biBoole(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if t, isBool := expr.TruthValue(n.Arg(1)); isBool {
		if t {
			return expr.FromInt64(1), true
		}
		return expr.FromInt64(0), true
	}
	return n, false
}

func bitOp(op func(a, b int64) int64, identity int64) Builtin {
	return func(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
		acc := identity
		for _, a := range n.Args() {
			i, ok := a.(*expr.Integer)
			if !ok || !i.IsMachine() {
				return n, false
			}
			acc = op(acc, i.Int64())
		}
		return expr.FromInt64(acc), true
	}
}

func biShiftLeft(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	return shift(k, n, maxExactBits, func(v *big.Int, s uint) *big.Int { return new(big.Int).Lsh(v, s) })
}

func biShiftRight(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	return shift(k, n, math.MaxInt64, func(v *big.Int, s uint) *big.Int { return new(big.Int).Rsh(v, s) })
}

// shift applies op for a count in [0, limit]; any other count leaves the call
// unevaluated.
func shift(k *Kernel, n *expr.Normal, limit int64, op func(*big.Int, uint) *big.Int) (expr.Expr, bool) {
	if n.Len() < 1 || n.Len() > 2 {
		return n, false
	}
	v, ok := n.Arg(1).(*expr.Integer)
	if !ok {
		return n, false
	}
	s := int64(1)
	if n.Len() == 2 {
		si, ok := n.Arg(2).(*expr.Integer)
		if !ok || !si.IsMachine() || si.Int64() < 0 || si.Int64() > limit {
			return n, false
		}
		s = si.Int64()
	}
	return expr.FromBig(op(v.Big(), uint(s))), true
}

func biIntegerPart(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if out, ok := roundToInt(k, n.Arg(1), math.Trunc, func(r *big.Rat) *big.Int {
		q := new(big.Int).Quo(r.Num(), r.Denom())
		return q
	}); ok {
		return out, true
	}
	return n, false
}

func biFractionalPart(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if x, ok := n.Arg(1).(*expr.Real); ok {
		return expr.FromFloat(x.V - math.Trunc(x.V)), true
	}
	if _, ok := n.Arg(1).(*expr.Integer); ok {
		return expr.FromInt64(0), true
	}
	return n, false
}

func biChop(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 1 || n.Len() > 2 {
		return n, false
	}
	tol := 1e-10
	if n.Len() == 2 {
		if t, ok := toFloat(n.Arg(2)); ok {
			tol = t
		}
	}
	out := expr.Replace(n.Arg(1), func(e expr.Expr) expr.Expr {
		if r, ok := e.(*expr.Real); ok && math.Abs(r.V) < tol {
			return expr.FromInt64(0)
		}
		return e
	})
	return out, true
}
