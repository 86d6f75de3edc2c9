package blas

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// naiveGemm is the reference triple loop the blocked kernel must match.
func naiveGemm(m, k, n int, a, b []float64) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func TestDGemmIdentity(t *testing.T) {
	n := 4
	id := make([]float64, n*n)
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
		for j := 0; j < n; j++ {
			a[i*n+j] = float64(i*n + j + 1)
		}
	}
	c := make([]float64, n*n)
	DGemm(n, n, n, a, id, c)
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("A*I != A at %d: %v vs %v", i, c[i], a[i])
		}
	}
}

func TestDGemmMatchesNaive(t *testing.T) {
	f := func(seed uint8) bool {
		m, k, n := int(seed%5)+1, int(seed%7)+1, int(seed%3)+1
		a := make([]float64, m*k)
		b := make([]float64, k*n)
		v := float64(seed) + 0.5
		for i := range a {
			v = math.Mod(v*1.7+0.3, 10)
			a[i] = v
		}
		for i := range b {
			v = math.Mod(v*2.3+0.1, 10)
			b[i] = v
		}
		c := make([]float64, m*n)
		DGemm(m, k, n, a, b, c)
		want := naiveGemm(m, k, n, a, b)
		for i := range c {
			if math.Abs(c[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDGemmLargerThanBlock(t *testing.T) {
	// Exercise the blocking path (block = 64).
	m, k, n := 70, 65, 67
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	for i := range a {
		a[i] = float64(i%13) * 0.5
	}
	for i := range b {
		b[i] = float64(i%7) * 0.25
	}
	c := make([]float64, m*n)
	DGemm(m, k, n, a, b, c)
	want := naiveGemm(m, k, n, a, b)
	for i := range c {
		if math.Abs(c[i]-want[i]) > 1e-9 {
			t.Fatalf("blocked mismatch at %d: %v vs %v", i, c[i], want[i])
		}
	}
}

func TestDGemv(t *testing.T) {
	a := []float64{1, 2, 3, 4} // 2x2
	x := []float64{5, 6}
	y := make([]float64, 2)
	DGemv(2, 2, a, x, y)
	if y[0] != 17 || y[1] != 39 {
		t.Fatalf("y = %v", y)
	}
}

func TestDDotDAxpyDSum(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if DDot(x, y) != 32 {
		t.Fatal("DDot broken")
	}
	if DSum(x) != 6 {
		t.Fatal("DSum broken")
	}
	DAxpy(2, x, y)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("DAxpy broken: %v", y)
	}
	if ISum([]int64{1, -2, 3}) != 2 {
		t.Fatal("ISum broken")
	}
}

// fill gives a and b reproducible values whose products round differently
// under any other accumulation order.
func fill(a, b []float64) {
	for i := range a {
		a[i] = 0.001*float64(i) - 3.7
	}
	for i := range b {
		b[i] = 0.002*float64(i%997) + 0.1
	}
}

// sameBits fails t unless got and want are bit-identical.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs (%g vs %g)", what, i, got[i], want[i])
		}
	}
}

// TestRowBandsBitIdentical holds the banded DGemm and DGemv to a plain
// triple loop bit-for-bit: each element accumulates its k products in one
// order (k ≤ 64 is one kk block, the loop's own order) whatever the bands.
// GOMAXPROCS is raised so that the split happens on any host, including
// an m smaller than the band count; k = 0 must zero C.
func TestRowBandsBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, k := range []int{0, 1, 64} {
		for _, m := range []int{0, 1, 2, 3, 7, 255, 256, 300} {
			n := 1 << 12 // 2·k·n ≥ the flop grain: every row may be a band
			if m > 7 {
				n = 67
			}
			a, b := make([]float64, m*k), make([]float64, k*n)
			fill(a, b)
			c := make([]float64, m*n)
			for i := range c {
				c[i] = math.NaN() // DGemm must overwrite, not accumulate
			}
			what := fmt.Sprintf("DGemm m=%d k=%d n=%d", m, k, n)
			DGemm(m, k, n, a, b, c)
			sameBits(t, what, c, naiveGemm(m, k, n, a, b))

			x, y := b[:k], make([]float64, m)
			DGemv(m, k, a, x, y)
			sameBits(t, what+" DGemv", y, naiveGemm(m, k, 1, a, x))
		}
	}
}

// TestDGemmBandedBitIdentical checks a k of several kk blocks at the
// benchmark's Dot size, and a DGemv large enough for eight bands: one band
// (GOMAXPROCS 1) and many must agree bit for bit, because a row's
// accumulation order does not depend on its band.
func TestDGemmBandedBitIdentical(t *testing.T) {
	const m, k, n = 256, 256, 256
	const gm, gn = 512, 1024 // 2·gm·gn = 2²⁰ flops: eight bands' worth
	a, b := make([]float64, m*k), make([]float64, k*n)
	fill(a, b)
	ga, x := make([]float64, gm*gn), make([]float64, gn)
	fill(ga, x)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	want, wantY := make([]float64, m*n), make([]float64, gm)
	DGemm(m, k, n, a, b, want)
	DGemv(gm, gn, ga, x, wantY)
	for _, procs := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		got, y := make([]float64, m*n), make([]float64, gm)
		DGemm(m, k, n, a, b, got)
		sameBits(t, fmt.Sprintf("DGemm GOMAXPROCS=%d", procs), got, want)
		DGemv(gm, gn, ga, x, y)
		sameBits(t, fmt.Sprintf("DGemv GOMAXPROCS=%d", procs), y, wantY)
	}
}
