package runtime

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

// Property tests for the checked-arithmetic laws the compiled code relies
// on. Operands are drawn from int32 so the reference computations cannot
// themselves overflow.

// Division law: a == m*Quotient[a, m] + Mod[a, m], with Mod's sign following
// the modulus and |Mod| < |m|.
func TestModQuotDivisionLawQuick(t *testing.T) {
	f := func(a32, m32 int32) bool {
		if m32 == 0 {
			return true
		}
		a, m := int64(a32), int64(m32)
		q, r := QuotI64(a, m), ModI64(a, m)
		if m*q+r != a {
			return false
		}
		if r != 0 && ((r < 0) != (m < 0)) {
			return false
		}
		abs := func(x int64) int64 {
			if x < 0 {
				return -x
			}
			return x
		}
		return abs(r) < abs(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// PowI64 agrees with arbitrary-precision exponentiation wherever the result
// fits in an int64, and throws ExcOverflow (the F2 soft-failure trigger)
// wherever it does not: at random bases and exponents, at small ones, and at
// the edges where a square or the last multiply just fits or just overflows.
// Repeated squaring answers the largest exponents at once.
func TestPowMatchesBigIntQuick(t *testing.T) {
	check := func(base, exp int64) bool {
		var got int64
		exc := catch(func() { got = PowI64(base, exp) })
		// |base| >= 2 to the 64th or more is past 2^63: no need to build it.
		if exp >= 64 && (base > 1 || base < -1) {
			return exc != nil && exc.Kind == ExcOverflow
		}
		want := new(big.Int).Exp(big.NewInt(base), big.NewInt(exp), nil)
		if want.IsInt64() {
			return exc == nil && got == want.Int64()
		}
		return exc != nil && exc.Kind == ExcOverflow
	}
	for _, r := range [][2]int64{
		{0, math.MaxInt64}, {1, math.MaxInt64}, {-1, math.MaxInt64}, {-1, math.MaxInt64 - 1},
		{0, 0}, {2, 62}, {2, 63}, {-2, 63}, {-2, 64}, {3, 39}, {3, 40}, {-3, 39}, {-3, 40},
		{math.MinInt64, 1}, {math.MinInt64, 2}, {math.MaxInt64, 1}, {3037000499, 2}, {3037000500, 2},
	} {
		if !check(r[0], r[1]) {
			t.Errorf("PowI64(%d, %d) disagrees with math/big", r[0], r[1])
		}
	}
	if exc := catch(func() { PowI64(2, -1) }); exc == nil || exc.Kind != ExcOverflow {
		t.Errorf("PowI64(2, -1) threw %v, want ExcOverflow", exc)
	}
	small := func(b8 int8, e8 uint8) bool { return check(int64(b8%10), int64(e8%64)) }
	if err := quick.Check(small, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Random full-width bases at exponents up to 70, and random exponents.
	wide := func(b, e int64, s uint8) bool {
		return check(b>>(s%64), int64(s%71)) && check(b%3, e&math.MaxInt64) && check(b>>(s%64), e&math.MaxInt64)
	}
	if err := quick.Check(wide, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// String laws used by the compiled string pipeline: joining preserves rune
// counts, and taking the first (or last) part of a join recovers the piece.
func TestStringJoinTakeLawsQuick(t *testing.T) {
	f := func(a, b string) bool {
		joined := a + b
		if StringRuneLen(joined) != StringRuneLen(a)+StringRuneLen(b) {
			return false
		}
		if StringTakeN(joined, StringRuneLen(a)) != a {
			return false
		}
		return StringTakeN(joined, -StringRuneLen(b)) == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Character-code round trip: FromCharCodes(ToCharCodes(s)) == s for any
// valid string.
func TestCharCodeRoundTripQuick(t *testing.T) {
	f := func(s string) bool {
		return FromCharCodes(ToCharCodes(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Checked negation: NegI64 agrees with big-int negation or overflows only
// at INT64_MIN.
func TestNegI64Quick(t *testing.T) {
	f := func(a int64) bool {
		exc := catch(func() { _ = NegI64(a) })
		if a == -1<<63 {
			return exc != nil
		}
		return exc == nil && NegI64(a) == -a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// The checked operations agree with arbitrary-precision arithmetic: each
// throws ExcOverflow exactly when the result does not fit and is exact
// otherwise, MulOK agrees with MulI64, and the edges the old division-based
// multiply test needed special cases for are drawn on purpose.
func TestCheckedArithMatchesBigIntQuick(t *testing.T) {
	edges := []int64{0, 1, -1, 2, -2, 3037000499, 3037000500, -3037000500,
		1 << 31, 1 << 32, -1 << 31, 1<<62 - 1, 1 << 62, -1 << 62, 1<<63 - 1, -1<<63 + 1, -1 << 63}
	ops := []struct {
		name  string
		throw func(a, b int64) int64
		big   func(z, a, b *big.Int) *big.Int
	}{
		{"add", AddI64, (*big.Int).Add},
		{"sub", SubI64, (*big.Int).Sub},
		{"mul", MulI64, (*big.Int).Mul},
	}
	check := func(a, b int64) bool {
		for _, op := range ops {
			want := op.big(new(big.Int), big.NewInt(a), big.NewInt(b))
			var got int64
			exc := catch(func() { got = op.throw(a, b) })
			if want.IsInt64() != (exc == nil) {
				t.Errorf("%s(%d, %d): exception=%v, exact result %s", op.name, a, b, exc, want)
				return false
			}
			if exc == nil && got != want.Int64() {
				t.Errorf("%s(%d, %d) = %d, want %s", op.name, a, b, got, want)
				return false
			}
			if exc != nil && exc.Kind != ExcOverflow {
				t.Errorf("%s(%d, %d) threw %v, want ExcOverflow", op.name, a, b, exc.Kind)
				return false
			}
		}
		if p, ok := MulOK(a, b); ok != (catch(func() { MulI64(a, b) }) == nil) || ok && p != a*b {
			t.Errorf("MulOK(%d, %d) = %d, %v disagrees with MulI64", a, b, p, ok)
			return false
		}
		return true
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	// Random full-width operands, and operands whose product straddles 2^63.
	f := func(a, b int64, s uint8) bool {
		return check(a, b) && check(a>>(s%64), b>>((s/4)%64)) && check(a, edges[int(s)%len(edges)])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// The literal-modulus forms compiled code selects agree with ModI64/QuotI64
// wherever their precondition holds, and the power-of-two bodies (mask and
// arithmetic shift) are exact for negative dividends too.
func TestLiteralModulusFormsQuick(t *testing.T) {
	f := func(a int64, m int64, k uint8) bool {
		if m != 0 && m != -1 {
			if ModNZ(a, m) != ModI64(a, m) || QuotNZ(a, m) != QuotI64(a, m) {
				return false
			}
		}
		sh := int64(k % 63)
		p := int64(1) << sh
		return a&(p-1) == ModI64(a, p) && a>>sh == QuotI64(a, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []int64{-1 << 63, -1<<63 + 1, -1, 0, 1<<63 - 1} {
		for sh := int64(0); sh < 63; sh++ {
			if p := int64(1) << sh; a&(p-1) != ModI64(a, p) || a>>sh != QuotI64(a, p) {
				t.Fatalf("power-of-two body wrong for %d by 2^%d", a, sh)
			}
		}
	}
}
