package kernel

import (
	"math"
	"math/big"
	"testing"

	"wolfc/internal/expr"
)

// refNumCompare is numCompare as it was before machine integers got their
// own path: every exact operand becomes a big.Rat, every other real a
// float64.
func refNumCompare(a, b expr.Expr) (int, bool) {
	ka, kb := numKindOf(a), numKindOf(b)
	if ka == kindNone || kb == kindNone || ka == kindComplex || kb == kindComplex {
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

// numericTower is one operand of each awkward kind: the machine extremes,
// ±2^63 and beyond as big integers, rationals on both sides of an integer,
// reals including ±Inf, NaN and -0.0, a complex number and a non-number.
func numericTower() []expr.Expr {
	two63 := new(big.Int).Lsh(big.NewInt(1), 63)
	bigInt := func(v *big.Int) expr.Expr { return expr.FromBig(v) }
	rat := func(num, den int64) expr.Expr { return &expr.Rational{V: big.NewRat(num, den)} }
	ratBig := func(num *big.Int, den int64) expr.Expr {
		return &expr.Rational{V: new(big.Rat).SetFrac(num, big.NewInt(den))}
	}
	return []expr.Expr{
		expr.FromInt64(0), expr.FromInt64(1), expr.FromInt64(-1), expr.FromInt64(3),
		expr.FromInt64(math.MinInt64), expr.FromInt64(math.MaxInt64), expr.FromInt64(math.MaxInt64 - 1),
		bigInt(two63), bigInt(new(big.Int).Neg(two63)), bigInt(new(big.Int).Sub(new(big.Int).Neg(two63), big.NewInt(1))),
		bigInt(new(big.Int).Lsh(two63, 1)), bigInt(new(big.Int).Neg(new(big.Int).Lsh(two63, 40))),
		rat(5, 2), rat(7, 2), rat(-5, 2), rat(-7, 2), rat(1, 3),
		ratBig(new(big.Int).Add(new(big.Int).Lsh(two63, 1), big.NewInt(1)), 2), // 2^63 + 1/2
		ratBig(new(big.Int).Sub(new(big.Int).Lsh(two63, 1), big.NewInt(1)), 2), // 2^63 - 1/2
		expr.FromFloat(0), expr.FromFloat(math.Copysign(0, -1)), expr.FromFloat(3), expr.FromFloat(2.5),
		expr.FromFloat(-3.5), expr.FromFloat(9.223372036854775807e18), expr.FromFloat(-9.223372036854775808e18),
		expr.FromFloat(math.Inf(1)), expr.FromFloat(math.Inf(-1)), expr.FromFloat(math.NaN()),
		expr.FromComplex(1, 2), expr.FromString("1"), expr.Sym("x"),
	}
}

// TestNumCompareMatchesRatReference compares every pair of the tower both
// ways against the big.Rat reference, and pins a few answers the
// reference could get wrong along with numCompare.
func TestNumCompareMatchesRatReference(t *testing.T) {
	tower := numericTower()
	for _, a := range tower {
		for _, b := range tower {
			c, ok := numCompare(a, b)
			rc, rok := refNumCompare(a, b)
			if c != rc || ok != rok {
				t.Errorf("numCompare(%s, %s) = %d, %v; the big.Rat reference says %d, %v",
					expr.FullForm(a), expr.FullForm(b), c, ok, rc, rok)
			}
		}
	}
	two63 := expr.FromBig(new(big.Int).Lsh(big.NewInt(1), 63))
	for _, row := range []struct {
		a, b expr.Expr
		want int
	}{
		{expr.FromInt64(math.MinInt64), expr.FromInt64(math.MaxInt64), -1},
		{expr.FromInt64(math.MaxInt64), two63, -1},
		{two63, expr.FromInt64(math.MaxInt64), 1},
		{expr.FromInt64(3), &expr.Rational{V: big.NewRat(7, 2)}, -1},
		{expr.FromInt64(3), &expr.Rational{V: big.NewRat(5, 2)}, 1},
		{expr.FromFloat(math.Copysign(0, -1)), expr.FromInt64(0), 0},
		{expr.FromFloat(math.NaN()), expr.FromInt64(0), 0},
	} {
		if c, ok := numCompare(row.a, row.b); !ok || c != row.want {
			t.Errorf("numCompare(%s, %s) = %d, %v; want %d", expr.FullForm(row.a), expr.FullForm(row.b), c, ok, row.want)
		}
	}
}

// TestMachineIntegerComparesAllocateNothing: comparing, equating and
// canonically ordering machine integers builds no big.Int or big.Rat.
func TestMachineIntegerComparesAllocateNothing(t *testing.T) {
	var a, b expr.Expr = expr.FromInt64(2), expr.FromInt64(math.MaxInt64)
	if n := testing.AllocsPerRun(100, func() {
		numCompare(a, b)
		numEqual(a, b)
		canonicalLess(b, a)
	}); n != 0 {
		t.Errorf("comparing two machine integers: %v allocations, want 0", n)
	}
	unsorted := []expr.Expr{expr.FromInt64(9), expr.FromInt64(1), expr.FromInt64(-4), expr.FromInt64(1)}
	args := make([]expr.Expr, len(unsorted))
	if n := testing.AllocsPerRun(100, func() {
		copy(args, unsorted)
		sortCanonical(args)
	}); n != 0 {
		t.Errorf("sortCanonical over machine integers: %v allocations, want 0", n)
	}
	if got := expr.InputForm(expr.List(args...)); got != "{-4, 1, 1, 9}" {
		t.Errorf("sortCanonical gave %s", got)
	}
}
