package runtime

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"
	"testing/quick"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

// catch runs f and returns the runtime exception it panics with, if any.
func catch(f func()) (exc *Exception) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			exc, ok = r.(*Exception)
			if !ok {
				panic(r)
			}
		}
	}()
	f()
	return nil
}

func TestCheckedArithmetic(t *testing.T) {
	if AddI64(2, 3) != 5 || SubI64(2, 3) != -1 || MulI64(6, 7) != 42 {
		t.Fatal("basic arithmetic broken")
	}
	if exc := catch(func() { AddI64(math.MaxInt64, 1) }); exc == nil || exc.Kind != ExcOverflow {
		t.Fatal("add overflow must throw")
	}
	if exc := catch(func() { SubI64(math.MinInt64, 1) }); exc == nil || exc.Kind != ExcOverflow {
		t.Fatal("sub overflow must throw")
	}
	if exc := catch(func() { MulI64(1<<62, 4) }); exc == nil || exc.Kind != ExcOverflow {
		t.Fatal("mul overflow must throw")
	}
	if exc := catch(func() { NegI64(math.MinInt64) }); exc == nil {
		t.Fatal("neg overflow must throw")
	}
	if exc := catch(func() { ModI64(1, 0) }); exc == nil || exc.Kind != ExcDivideByZero {
		t.Fatal("mod by zero must throw")
	}
	if exc := catch(func() { QuotI64(math.MinInt64, -1) }); exc == nil || exc.Kind != ExcOverflow {
		t.Fatal("MinInt64 / -1 must throw")
	}
	// The edges of the real-to-integer range: -2^63 fits, 2^63 does not.
	if RealToI64(-(1<<63)) != math.MinInt64 || RealToI64(1<<62) != 1<<62 {
		t.Fatal("in-range real to integer broken")
	}
	for _, x := range []float64{1 << 63, -(1 << 63) * 1.5, math.Inf(1), math.NaN()} {
		if exc := catch(func() { RealToI64(x) }); exc == nil || exc.Kind != ExcOverflow {
			t.Fatalf("RealToI64(%v) must throw", x)
		}
	}
	if ShlI64(3, 61) != 3<<61 || ShlI64(-1, 63) != math.MinInt64 || ShlI64(0, 200) != 0 || ShrI64(-5, 70) != -1 {
		t.Fatal("in-range shifts broken")
	}
	for _, c := range [][2]int64{{1, 63}, {1, 64}, {-2, 63}, {5, -1}} {
		if exc := catch(func() { ShlI64(c[0], c[1]) }); exc == nil || exc.Kind != ExcOverflow {
			t.Fatalf("ShlI64(%d, %d) must throw", c[0], c[1])
		}
	}
	if exc := catch(func() { ShrI64(5, -1) }); exc == nil || exc.Kind != ExcOverflow {
		t.Fatal("negative right shift must throw")
	}
}

// Property: checked ops agree with big-integer arithmetic when in range.
func TestCheckedArithmeticQuick(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := int64(a), int64(b)
		return AddI64(x, y) == x+y && SubI64(x, y) == x-y && MulI64(x, y) == x*y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModQuotSemantics(t *testing.T) {
	// Language semantics: Mod sign follows the modulus; Quotient floors.
	cases := []struct{ a, m, mod, quot int64 }{
		{7, 3, 1, 2},
		{-7, 3, 2, -3},
		{7, -3, -2, -3},
		{-7, -3, -1, 2},
	}
	for _, c := range cases {
		if got := ModI64(c.a, c.m); got != c.mod {
			t.Errorf("Mod(%d, %d) = %d, want %d", c.a, c.m, got, c.mod)
		}
		if got := QuotI64(c.a, c.m); got != c.quot {
			t.Errorf("Quot(%d, %d) = %d, want %d", c.a, c.m, got, c.quot)
		}
	}
}

func TestPowI64(t *testing.T) {
	if PowI64(2, 10) != 1024 || PowI64(7, 0) != 1 || PowI64(0, 5) != 0 {
		t.Fatal("PowI64 broken")
	}
	if exc := catch(func() { PowI64(2, 64) }); exc == nil {
		t.Fatal("2^64 must overflow")
	}
	if exc := catch(func() { PowI64(2, -1) }); exc == nil {
		t.Fatal("negative power must throw")
	}
}

func TestComplexPow(t *testing.T) {
	got := PowCInt(complex(0, 1), 2)
	if math.Abs(real(got)+1) > 1e-12 || math.Abs(imag(got)) > 1e-12 {
		t.Fatalf("i^2 = %v", got)
	}
	got = PowCInt(complex(2, 0), -2)
	if math.Abs(real(got)-0.25) > 1e-12 {
		t.Fatalf("2^-2 = %v", got)
	}
	if AbsC(complex(3, 4)) != 5 {
		t.Fatal("AbsC broken")
	}
	// The exponent's extremes: -MinInt64 does not fit in an int64.
	for _, r := range []struct {
		b    complex128
		n    int64
		want complex128
	}{
		{1, math.MinInt64, 1}, {-1, math.MinInt64, 1}, {1i, math.MinInt64, 1},
		{1, math.MaxInt64, 1}, {-1, math.MaxInt64, -1}, {1i, math.MaxInt64, -1i},
		{0.5 + 0.5i, math.MaxInt64, 0},
	} {
		if got := PowCInt(r.b, r.n); got != r.want {
			t.Errorf("%v^%d = %v, want %v", r.b, r.n, got, r.want)
		}
	}
	if got := PowCInt(0.5+0.5i, math.MinInt64); !cmplx.IsInf(got) {
		t.Errorf("(0.5+0.5i)^MinInt64 = %v, want an infinity", got)
	}
	// A negative power whose positive one overflows is 0, but a base with a
	// NaN part stays NaN.
	if got := PowCInt(1-1i, math.MinInt64); got != 0 {
		t.Errorf("(1-i)^MinInt64 = %v, want 0", got)
	}
	for _, b := range []complex128{complex(math.NaN(), 0), complex(0, math.NaN()), complex(math.NaN(), math.NaN())} {
		for _, n := range []int64{-2, math.MinInt64} {
			if got := PowCInt(b, n); !cmplx.IsNaN(got) {
				t.Errorf("%v^%d = %v, want NaN", b, n, got)
			}
		}
	}
}

func TestTensorIndexing(t *testing.T) {
	tt := NewTensor(KR64, 3)
	copy(tt.F, []float64{1, 2, 3})
	if tt.GetF(1) != 1 || tt.GetF(3) != 3 || tt.GetF(-1) != 3 || tt.GetF(-3) != 1 {
		t.Fatal("1-based/negative indexing broken")
	}
	if exc := catch(func() { tt.GetF(4) }); exc == nil || exc.Kind != ExcPartRange {
		t.Fatal("out of range must throw")
	}
	if exc := catch(func() { tt.GetF(0) }); exc == nil {
		t.Fatal("index 0 must throw")
	}
	m := NewTensor(KI64, 2, 3)
	copy(m.I, []int64{1, 2, 3, 4, 5, 6})
	if m.GetI2(2, 1) != 4 || m.GetI2(-1, -1) != 6 {
		t.Fatal("rank-2 indexing broken")
	}
	row := m.Row(2)
	if row.Len() != 3 || row.I[0] != 4 {
		t.Fatal("Row broken")
	}
}

func TestCopyOnWriteSharing(t *testing.T) {
	orig := NewTensor(KR64, 2)
	orig.F[0] = 1
	orig.MarkShared()
	// Mutating a shared tensor copies; the original is untouched.
	upd := orig.SetF(1, 99)
	if upd == orig {
		t.Fatal("shared tensor must copy on write")
	}
	if orig.F[0] != 1 || upd.F[0] != 99 {
		t.Fatal("copy-on-write values wrong")
	}
	if upd.IsShared() {
		t.Fatal("the private copy is not shared")
	}
	// A second write mutates in place.
	upd2 := upd.SetF(1, 50)
	if upd2 != upd {
		t.Fatal("unshared tensor must mutate in place")
	}
}

func TestZipMapArithmetic(t *testing.T) {
	a := NewTensor(KR64, 3)
	b := NewTensor(KR64, 3)
	copy(a.F, []float64{1, 2, 3})
	copy(b.F, []float64{10, 20, 30})
	sum := a.ZipFInto(b, func(x, y float64) float64 { return x + y }, nil)
	if sum.F[2] != 33 {
		t.Fatal("ZipFInto broken")
	}
	neg := a.MapFInto(func(x float64) float64 { return -x }, nil)
	if neg.F[0] != -1 {
		t.Fatal("MapFInto broken")
	}
	short := NewTensor(KR64, 2)
	if exc := catch(func() { a.ZipFInto(short, func(x, y float64) float64 { return 0 }, nil) }); exc == nil {
		t.Fatal("length mismatch must throw")
	}
}

// Listable threading pairs elements by position: two tensors thread only
// when their dimensions agree, not when their flat lengths happen to
// ({{1, 2}, {3, 4}} + {{1, 2, 3, 4}} used to add).
func TestZipComparesShapesNotFlatLengths(t *testing.T) {
	add := func(x, y float64) float64 { return x + y }
	addI := func(x, y int64) int64 { return x + y }
	square, row := NewTensor(KR64, 2, 2), NewTensor(KR64, 1, 4)
	for name, zip := range map[string]func(){
		"ZipFInto":           func() { square.ZipFInto(row, add, nil) },
		"ZipFInto, operand":  func() { square.ZipFInto(row, add, square) },
		"ZipFInto, argument": func() { square.ZipFInto(row, add, row) },
		"ZipIInto":           func() { NewTensor(KI64, 2, 2).ZipIInto(NewTensor(KI64, 4), addI, nil) },
		"ZipIInto, operand":  func() { x := NewTensor(KI64, 6); x.ZipIInto(NewTensor(KI64, 2, 3), addI, x) },
	} {
		if exc := catch(zip); exc == nil || exc.Kind != ExcType || !strings.Contains(exc.Msg, "unequal shape") {
			t.Errorf("%s of a 2x2 and a 1x4 tensor: %v, want the unequal-shape exception", name, exc)
		}
	}
	if sum := square.ZipFInto(NewTensor(KR64, 2, 2), add, nil); len(sum.Dims) != 2 || sum.Dims[0] != 2 || sum.Dims[1] != 2 {
		t.Errorf("2x2 + 2x2 has dimensions %v", sum.Dims)
	}
}

// The Into forms write the result over the tensor they are handed when it is
// unshared, whichever operand it is, and allocate when it is Shared or nil;
// either way the values are the same.
func TestIntoFormsReuseOnlyUnsharedStorage(t *testing.T) {
	sub := func(x, y float64) float64 { return x - y }
	fresh := func(vals ...float64) *Tensor {
		t := NewTensor(KR64, len(vals))
		copy(t.F, vals)
		return t
	}
	for _, shared := range []bool{false, true} {
		for _, second := range []bool{false, true} {
			a, b := fresh(10, 20, 30), fresh(1, 2, 3)
			into := a
			if second {
				into = b
			}
			if shared {
				into.MarkShared()
			}
			out := a.ZipFInto(b, sub, into)
			if out.F[0] != 9 || out.F[1] != 18 || out.F[2] != 27 {
				t.Fatalf("shared=%v second=%v: a - b = %v", shared, second, out.F)
			}
			if (out == into) == shared {
				t.Errorf("shared=%v second=%v: result reuses the operand = %v", shared, second, out == into)
			}
			if shared && (a.F[0] != 10 || b.F[0] != 1) {
				t.Errorf("second=%v: a Shared operand was written through: a=%v b=%v", second, a.F, b.F)
			}
		}
		v := fresh(1, 4, 9)
		if shared {
			v.MarkShared()
		}
		if out := v.MapFInto(math.Sqrt, v); out.F[2] != 3 || (out == v) == shared || shared && v.F[2] != 9 {
			t.Errorf("shared=%v: MapFInto gave %v (reused %v), operand now %v", shared, out.F, out == v, v.F)
		}
		n := NewTensor(KI64, 2).FillI(7)
		if shared {
			n.MarkShared()
		}
		if out := n.MapIInto(NegI64, n); out.I[1] != -7 || (out == n) == shared || shared && n.I[1] != 7 {
			t.Errorf("shared=%v: MapIInto gave %v (reused %v), operand now %v", shared, out.I, out == n, n.I)
		}
	}
	// A result never shares its Dims array with the tensor it was shaped
	// after: reshaping one must not reshape the other.
	a := NewTensor(KR64, 2, 3)
	out := a.MapFInto(math.Sqrt, nil)
	out.Dims[0] = 99
	if a.Dims[0] != 2 {
		t.Error("a mapped tensor shares its Dims array with its operand")
	}
}

// A rank-1 or rank-2 tensor is two allocations: the header, with its
// dimensions inside it, and the elements.
func TestNewTensorAllocations(t *testing.T) {
	for _, dims := range [][]int{{5}, {2, 3}} {
		if n := testing.AllocsPerRun(100, func() { NewTensor(KR64, dims...) }); n > 2 {
			t.Errorf("NewTensor of rank %d: %v allocations, want at most 2", len(dims), n)
		}
	}
	cube := NewTensor(KI64, 2, 3, 4)
	if len(cube.Dims) != 3 || cube.Dims[2] != 4 || len(cube.I) != 24 {
		t.Errorf("rank-3 tensor has dimensions %v and %d elements", cube.Dims, len(cube.I))
	}
}

func TestDotShapes(t *testing.T) {
	v := NewTensor(KR64, 2)
	copy(v.F, []float64{3, 4})
	if DotVV(v, v) != 25 {
		t.Fatal("DotVV broken")
	}
	m := NewTensor(KR64, 2, 2)
	copy(m.F, []float64{1, 0, 0, 2})
	mv := DotMV(m, v)
	if mv.F[0] != 3 || mv.F[1] != 8 {
		t.Fatal("DotMV broken")
	}
	mm := DotMM(m, m)
	if mm.F[0] != 1 || mm.F[3] != 4 {
		t.Fatal("DotMM broken")
	}
	bad := NewTensor(KR64, 3)
	if exc := catch(func() { DotVV(v, bad) }); exc == nil {
		t.Fatal("shape mismatch must throw")
	}
}

func TestUnboxBoxRoundTrip(t *testing.T) {
	cases := []struct {
		src string
		ty  string
	}{
		{"42", `"Integer64"`},
		{"2.5", `"Real64"`},
		{"True", `"Boolean"`},
		{`"hi"`, `"String"`},
		{"{1, 2, 3}", `"Tensor"["Integer64", 1]`},
		{"{1.5, 2.5}", `"Tensor"["Real64", 1]`},
		{"{{1., 2.}, {3., 4.}}", `"Tensor"["Real64", 2]`},
	}
	env := types.Builtin()
	for _, c := range cases {
		ty := env.MustParseSpec(parser.MustParse(c.ty))
		e := parser.MustParse(c.src)
		v, ok := Unbox(e, ty)
		if !ok {
			t.Fatalf("Unbox(%s : %s) failed", c.src, c.ty)
		}
		back := Box(v, ty)
		if !expr.SameQ(e, back) {
			t.Fatalf("round trip %s -> %s", c.src, expr.InputForm(back))
		}
	}
	// Mismatches fail cleanly.
	i64 := env.MustParseSpec(parser.MustParse(`"Integer64"`))
	if _, ok := Unbox(parser.MustParse(`"nope"`), i64); ok {
		t.Fatal("string into Integer64 must fail")
	}
	if _, ok := Unbox(parser.MustParse("{1, x}"),
		env.MustParseSpec(parser.MustParse(`"Tensor"["Integer64", 1]`))); ok {
		t.Fatal("symbolic element must fail tensor unboxing")
	}
}

func TestUnboxedTensorsAreShared(t *testing.T) {
	env := types.Builtin()
	ty := env.MustParseSpec(parser.MustParse(`"Tensor"["Real64", 1]`))
	v, ok := Unbox(parser.MustParse("{1., 2.}"), ty)
	if !ok {
		t.Fatal("unbox failed")
	}
	if !v.(*Tensor).IsShared() {
		t.Fatal("ABI tensors must arrive Shared (copy-on-write trigger, F5)")
	}
}

func TestStringHelpers(t *testing.T) {
	if StringByte("AB", 1) != 65 || StringByte("AB", 2) != 66 {
		t.Fatal("StringByte broken")
	}
	// One unsigned compare covers every index outside 1..n.
	for _, i := range []int64{3, 0, -1, math.MinInt64, math.MaxInt64} {
		if exc := catch(func() { StringByte("AB", i) }); exc == nil || exc.Kind != ExcPartRange {
			t.Fatalf("StringByte index %d must throw a Part range exception, got %v", i, exc)
		}
	}
	if exc := catch(func() { StringByte("", 1) }); exc == nil {
		t.Fatal("byte of the empty string must throw")
	}
	if StringRuneLen("héllo") != 5 {
		t.Fatal("rune length broken")
	}
	if StringTakeN("hello", 2) != "he" || StringTakeN("hello", -2) != "lo" {
		t.Fatal("StringTakeN broken")
	}
	codes := ToCharCodes("hi")
	if codes.I[0] != 104 || codes.I[1] != 105 {
		t.Fatal("ToCharCodes broken")
	}
	if FromCharCodes(codes) != "hi" {
		t.Fatal("FromCharCodes broken")
	}
	if FormatInt(-3) != "-3" || FormatReal(2.5) != "2.5" {
		t.Fatal("formatting broken")
	}
}

func TestKernelApplyWithoutEngine(t *testing.T) {
	// The throw names the offending head so a standalone-mode user can see
	// which call needed the engine.
	exc := catch(func() { KernelApply(nil, expr.Sym("myKernelFn"), nil) })
	if exc == nil || exc.Kind != ExcKernel {
		t.Fatal("standalone KernelApply must throw ExcKernel")
	}
	if !strings.Contains(exc.Msg, "myKernelFn") {
		t.Fatalf("standalone KernelApply message %q does not name the head", exc.Msg)
	}
	exc = catch(func() { ExprBinary(nil, "Plus", expr.FromInt64(1), expr.FromInt64(2)) })
	if exc == nil {
		t.Fatal("standalone symbolic op must throw")
	}
	if !strings.Contains(exc.Msg, "Plus") {
		t.Fatalf("standalone symbolic message %q does not name the operation", exc.Msg)
	}
	// Non-symbol heads render in InputForm.
	exc = catch(func() { KernelApply(nil, expr.NewS("Derivative", expr.FromInt64(1)), nil) })
	if exc == nil || !strings.Contains(exc.Msg, "Derivative[1]") {
		t.Fatalf("standalone KernelApply with compound head: %v", exc)
	}
}
