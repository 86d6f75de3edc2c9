package expr

import (
	"bytes"
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestSymbolInterning(t *testing.T) {
	a := Sym("Foo")
	b := Sym("Foo")
	if a != b {
		t.Fatal("symbols with the same name must be identical")
	}
	if Sym("Bar") == a {
		t.Fatal("distinct names must intern distinct symbols")
	}
	if a.Head() != SymSymbol {
		t.Fatalf("Head of symbol = %v", a.Head())
	}
}

func TestIntegerMachineAndBig(t *testing.T) {
	n := FromInt64(42)
	if !n.IsMachine() || n.Int64() != 42 {
		t.Fatalf("machine integer broken: %v", n)
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 100)
	b := FromBig(huge)
	if b.IsMachine() {
		t.Fatal("2^100 must not be machine")
	}
	if b.Big().Cmp(huge) != 0 {
		t.Fatal("big value mismatch")
	}
	// FromBig normalises small values back to machine representation.
	small := FromBig(big.NewInt(-7))
	if !small.IsMachine() || small.Int64() != -7 {
		t.Fatal("FromBig must normalise small values")
	}
	if small.Sign() != -1 || n.Sign() != 1 || FromInt64(0).Sign() != 0 {
		t.Fatal("Sign broken")
	}
}

func TestRatioNormalisation(t *testing.T) {
	// 6/3 reduces to the integer 2.
	e := Ratio(big.NewInt(6), big.NewInt(3))
	n, ok := e.(*Integer)
	if !ok || n.Int64() != 2 {
		t.Fatalf("Ratio(6,3) = %v, want Integer 2", e)
	}
	// 2/4 reduces to 1/2.
	q, ok := Ratio(big.NewInt(2), big.NewInt(4)).(*Rational)
	if !ok || q.String() != "1/2" {
		t.Fatalf("Ratio(2,4) = %v, want 1/2", q)
	}
	// Negative denominators normalise.
	q2, ok := Ratio(big.NewInt(1), big.NewInt(-2)).(*Rational)
	if !ok || q2.String() != "-1/2" {
		t.Fatalf("Ratio(1,-2) = %v, want -1/2", q2)
	}
}

func TestSameQ(t *testing.T) {
	cases := []struct {
		a, b Expr
		want bool
	}{
		{FromInt64(1), FromInt64(1), true},
		{FromInt64(1), FromInt64(2), false},
		{FromInt64(1), FromFloat(1), false},
		{FromFloat(1.5), FromFloat(1.5), true},
		{FromString("x"), FromString("x"), true},
		{FromString("x"), Sym("x"), false},
		{Sym("x"), Sym("x"), true},
		{FromComplex(1, 2), FromComplex(1, 2), true},
		{FromComplex(1, 2), FromComplex(1, 3), false},
		{List(FromInt64(1), FromInt64(2)), List(FromInt64(1), FromInt64(2)), true},
		{List(FromInt64(1)), List(FromInt64(1), FromInt64(2)), false},
		{NewS("f", Sym("x")), NewS("f", Sym("x")), true},
		{NewS("f", Sym("x")), NewS("g", Sym("x")), false},
		{FromBig(new(big.Int).Lsh(big.NewInt(1), 80)), FromBig(new(big.Int).Lsh(big.NewInt(1), 80)), true},
		{FromInt64(5), FromBig(big.NewInt(5)), true},
	}
	for i, c := range cases {
		if got := SameQ(c.a, c.b); got != c.want {
			t.Errorf("case %d: SameQ(%v, %v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestHashConsistentWithSameQ(t *testing.T) {
	a := NewS("f", FromInt64(1), List(Sym("x"), FromFloat(2.5)))
	b := NewS("f", FromInt64(1), List(Sym("x"), FromFloat(2.5)))
	if Hash(a) != Hash(b) {
		t.Fatal("structurally equal expressions must hash equal")
	}
	c := NewS("f", FromInt64(2), List(Sym("x"), FromFloat(2.5)))
	if Hash(a) == Hash(c) {
		t.Fatal("hash collision on trivially different expressions (suspicious)")
	}
}

// Hash walks the binary encoding in a pooled buffer: no string per atom, and
// the two real zeros, which SameQ holds equal, hash alike while a round trip
// keeps them apart.
func TestHashAllocatesNothing(t *testing.T) {
	e := NewS("f", FromInt64(-7), FromBig(new(big.Int).Lsh(big.NewInt(3), 200)), FromFloat(2.5),
		Ratio(big.NewInt(22), big.NewInt(7)), FromComplex(1.5, -2.5), FromString("héllo"),
		List(Sym("x"), NewS("g", Sym("y"))))
	var sink uint64
	// (Under the race detector sync.Pool drops a share of what it is given.)
	if n := testing.AllocsPerRun(100, func() { sink += Hash(e) }); n != 0 && !raceEnabled {
		t.Errorf("Hash allocates %.0f times per call", n)
	}
	negZero := FromFloat(math.Copysign(0, -1))
	if !SameQ(FromFloat(0), negZero) || Hash(FromFloat(0)) != Hash(negZero) {
		t.Error("0. and -0. are SameQ and must hash equal")
	}
	var buf bytes.Buffer
	if err := Encode(&buf, negZero); err != nil {
		t.Fatal(err)
	}
	if got, err := Decode(&buf); err != nil || !math.Signbit(got.(*Real).V) {
		t.Errorf("-0. must round-trip with its sign: %v, %v", got, err)
	}
}

func TestNormalAccessors(t *testing.T) {
	n := NewS("f", FromInt64(1), FromInt64(2), FromInt64(3))
	if n.Len() != 3 {
		t.Fatalf("Len = %d", n.Len())
	}
	if got := n.Arg(2).(*Integer).Int64(); got != 2 {
		t.Fatalf("Arg(2) = %d", got)
	}
	m := n.WithArgs(FromInt64(9))
	if m.Len() != 1 || n.Len() != 3 {
		t.Fatal("WithArgs must not mutate the receiver")
	}
	h := n.WithHead(Sym("g"))
	if h.Head() != Sym("g") || n.Head() != Sym("f") {
		t.Fatal("WithHead must not mutate the receiver")
	}
}

func TestInputForm(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{FromInt64(5), "5"},
		{FromFloat(2), "2."},
		{FromFloat(2.5), "2.5"},
		{FromString("hi\n"), `"hi\n"`},
		{List(FromInt64(1), FromInt64(2)), "{1, 2}"},
		{NewS("Plus", Sym("a"), Sym("b"), Sym("c")), "a + b + c"},
		{NewS("Times", Sym("a"), NewS("Plus", Sym("b"), Sym("c"))), "a*(b + c)"},
		{NewS("Power", Sym("x"), FromInt64(2)), "x^2"},
		{NewS("Part", Sym("a"), FromInt64(1)), "a[[1]]"},
		{NewS("Slot", FromInt64(1)), "#"},
		{NewS("Slot", FromInt64(2)), "#2"},
		{NewS("Function", NewS("Plus", NewS("Slot", FromInt64(1)), FromInt64(1))), "# + 1 &"},
		{NewS("f", Sym("x"), FromInt64(3)), "f[x, 3]"},
		{NewS("Pattern", Sym("x"), NewS("Blank")), "x_"},
		{NewS("Pattern", Sym("x"), NewS("Blank", Sym("Integer"))), "x_Integer"},
		{NewS("Rule", Sym("a"), Sym("b")), "a -> b"},
		{NewS("Set", Sym("a"), FromInt64(1)), "a = 1"},
		{NewS("CompoundExpression", NewS("Set", Sym("a"), FromInt64(1)), Sym("a")), "a = 1;a"},
		{NewS("Minus", Sym("x")), "-x"},
		// Each of these printed a form that reads back as something else, or
		// not at all: xBlankSequence[h], BlankSequence[h] and --x.
		{NewS("Pattern", Sym("a"), NewS("BlankSequence", Sym("Integer"))), "a__Integer"},
		{NewS("Pattern", Sym("a"), NewS("BlankNullSequence", Sym("Real"))), "a___Real"},
		{NewS("Pattern", Sym("a"), NewS("BlankNullSequence")), "a___"},
		{NewS("BlankSequence", Sym("h")), "__h"},
		{NewS("BlankNullSequence", Sym("h")), "___h"},
		{NewS("Blank", NewS("f", Sym("x"))), "Blank[f[x]]"},
		{NewS("Pattern", Sym("x"), NewS("f", Sym("y"))), "Pattern[x, f[y]]"},
		{NewS("Minus", NewS("Minus", Sym("x"))), "-(-x)"},
		{NewS("Minus", FromInt64(-5)), "-(-5)"},
		{NewS("Times", Sym("a"), NewS("Not", Sym("b")), Sym("c")), "a*(!b)*c"},
		{New(FromInt64(-10), FromInt64(0)), "(-10)[0]"},
		{NewS("Power", FromInt64(-1), FromInt64(2)), "(-1)^2"},
		{NewS("Plus", Sym("a"), FromInt64(-1)), "a + -1"},
		{NewS("Power", Sym("x"), FromInt64(-1)), "x^-1"},
		{NewS("Not", Sym("p")), "!p"},
		{NewS("And", Sym("p"), NewS("Or", Sym("q"), Sym("r"))), "p && (q || r)"},
	}
	for _, c := range cases {
		if got := InputForm(c.e); got != c.want {
			t.Errorf("InputForm(%s) = %q, want %q", FullForm(c.e), got, c.want)
		}
	}
}

func TestFullForm(t *testing.T) {
	e := NewS("Plus", Sym("a"), NewS("Times", FromInt64(2), Sym("b")))
	if got := FullForm(e); got != "Plus[a, Times[2, b]]" {
		t.Fatalf("FullForm = %q", got)
	}
	q := Ratio(big.NewInt(1), big.NewInt(3))
	if got := FullForm(q); got != "Rational[1, 3]" {
		t.Fatalf("FullForm rational = %q", got)
	}
}

func TestWalkAndReplace(t *testing.T) {
	e := NewS("f", NewS("g", Sym("x")), Sym("x"), FromInt64(1))
	count := 0
	Walk(e, func(Expr) bool { count++; return true })
	// Nodes: f[..], f, g[x], g, x, x, 1  => 7
	if count != 7 {
		t.Fatalf("Walk visited %d nodes, want 7", count)
	}
	// Replace x by y everywhere.
	out := Replace(e, func(n Expr) Expr {
		if n == Sym("x") {
			return Sym("y")
		}
		return n
	})
	want := NewS("f", NewS("g", Sym("y")), Sym("y"), FromInt64(1))
	if !SameQ(out, want) {
		t.Fatalf("Replace = %v", out)
	}
	// Original untouched.
	if !SameQ(e, NewS("f", NewS("g", Sym("x")), Sym("x"), FromInt64(1))) {
		t.Fatal("Replace mutated its input")
	}
}

func TestTruthValue(t *testing.T) {
	if v, ok := TruthValue(SymTrue); !v || !ok {
		t.Fatal("True")
	}
	if v, ok := TruthValue(SymFalse); v || !ok {
		t.Fatal("False")
	}
	if _, ok := TruthValue(FromInt64(1)); ok {
		t.Fatal("1 is not boolean")
	}
}

func TestMeta(t *testing.T) {
	m := NewMeta()
	e := NewS("f", Sym("x"))
	m.Set(e, "type", "Integer64")
	if v, ok := m.Get(e, "type"); !ok || v != "Integer64" {
		t.Fatal("metadata get/set broken")
	}
	if _, ok := m.Get(e, "missing"); ok {
		t.Fatal("missing key must not be found")
	}
	dst := NewS("g")
	m.Copy(dst, e)
	if v, _ := m.Get(dst, "type"); v != "Integer64" {
		t.Fatal("metadata copy broken")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	exprs := []Expr{
		FromInt64(0),
		FromInt64(-123456789),
		FromBig(new(big.Int).Lsh(big.NewInt(-3), 200)),
		FromFloat(math.Pi),
		FromFloat(math.Inf(1)),
		Ratio(big.NewInt(22), big.NewInt(7)),
		FromComplex(1.5, -2.5),
		FromString("hello \"world\"\n"),
		Sym("Plus"),
		List(),
		NewS("f", List(FromInt64(1), FromFloat(2)), NewS("g", Sym("x"))),
	}
	for _, e := range exprs {
		var buf bytes.Buffer
		if err := Encode(&buf, e); err != nil {
			t.Fatalf("encode %v: %v", e, err)
		}
		got, err := Decode(&buf)
		if err != nil {
			t.Fatalf("decode %v: %v", e, err)
		}
		if !SameQ(e, got) {
			t.Fatalf("round trip %v -> %v", e, got)
		}
	}
}

// Property: any integer round-trips through serialisation, and SameQ is
// reflexive on generated trees.
func TestSerializeQuickInt(t *testing.T) {
	f := func(v int64) bool {
		var buf bytes.Buffer
		if err := Encode(&buf, FromInt64(v)); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return SameQ(FromInt64(v), got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSerializeQuickTree(t *testing.T) {
	f := func(xs []int64, ss []string) bool {
		args := make([]Expr, 0, len(xs)+len(ss))
		for _, v := range xs {
			args = append(args, FromInt64(v))
		}
		for _, s := range ss {
			args = append(args, FromString(s))
		}
		e := NewS("f", List(args...), NewS("g", args...))
		var buf bytes.Buffer
		if err := Encode(&buf, e); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return SameQ(e, got) && Hash(e) == Hash(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMapLength(t *testing.T) {
	e := List(FromInt64(1), FromInt64(2), FromInt64(3))
	out := Map(func(x Expr) Expr {
		return FromInt64(x.(*Integer).Int64() * 10)
	}, e)
	if !SameQ(out, List(FromInt64(10), FromInt64(20), FromInt64(30))) {
		t.Fatalf("Map = %v", out)
	}
	if Length(e) != 3 || Length(FromInt64(1)) != 0 {
		t.Fatal("Length broken")
	}
	if Map(func(x Expr) Expr { return x }, FromInt64(1)) != FromInt64(1) {
		// atoms pass through by identity? Map returns e unchanged
		t.Log("atom identity not preserved (allowed), checking SameQ instead")
	}
}
