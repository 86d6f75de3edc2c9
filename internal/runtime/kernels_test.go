package runtime

import (
	"math"
	gort "runtime"
	"slices"
	"sync"
	"testing"
)

func fillSeq(t *Tensor) {
	for i := range t.F {
		t.F[i] = 0.001*float64(i) + 0.5
	}
	for i := range t.I {
		t.I[i] = int64(i % 97)
	}
}

// TestGaussianBlurMatchesReference holds the blur native to the stencil
// written out pixel by pixel, borders zero, including images too small to
// have an interior.
func TestGaussianBlurMatchesReference(t *testing.T) {
	w := [3][3]float64{{1, 2, 1}, {2, 4, 2}, {1, 2, 1}}
	for _, dims := range [][2]int{{0, 0}, {1, 5}, {2, 2}, {2, 9}, {9, 2}, {3, 3}, {17, 33}} {
		rows, cols := dims[0], dims[1]
		img := NewTensor(KR64, rows, cols)
		fillSeq(img)
		got := GaussianBlur3x3(img)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				want := 0.0
				if i > 0 && i < rows-1 && j > 0 && j < cols-1 {
					for di := -1; di <= 1; di++ {
						for dj := -1; dj <= 1; dj++ {
							want += w[di+1][dj+1] * img.F[(i+di)*cols+j+dj]
						}
					}
					want /= 16
				}
				if math.Float64bits(got.F[i*cols+j]) != math.Float64bits(want) {
					t.Fatalf("blur %dx%d: pixel (%d,%d) = %g, want %g", rows, cols, i, j, got.F[i*cols+j], want)
				}
			}
		}
	}
}

// TestHistogramMatchesReference counts every value, the first and last bin
// included, against a map.
func TestHistogramMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 97, 10_000} {
		data := NewTensor(KI64, n)
		fillSeq(data)
		want := map[int64]int64{}
		for _, v := range data.I {
			want[v]++
		}
		got := HistogramBins(97, data)
		for b, c := range got.I {
			if c != want[int64(b)] {
				t.Fatalf("n=%d: bin %d got %d want %d", n, b, c, want[int64(b)])
			}
		}
	}
}

// The natives run on their caller's goroutine, and compiled code calls them
// from many goroutines at once over shared tensors (DESIGN.md, "Concurrent
// invocation"). The four tests below call a native from parallel callers on
// one input and hold every result to the serial one bit for bit.

// inParallel calls f from 8 goroutines at once and waits for all of them.
func inParallel(f func()) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

// TestParallelKernelsBitIdentical maps Sqrt over one Shared tensor from
// parallel callers, each offering the input as the operand to write over:
// every caller must get a fresh result equal to the serial loop, and the
// input must stay as it was.
func TestParallelKernelsBitIdentical(t *testing.T) {
	for _, n := range []int{1, 100, 5000, 50_000} {
		in := NewTensor(KR64, n)
		fillSeq(in)
		in.MarkShared()
		orig := slices.Clone(in.F)
		want := make([]float64, n)
		for i, x := range in.F {
			want[i] = math.Sqrt(x)
		}
		inParallel(func() {
			got := in.MapFInto(math.Sqrt, in)
			for i := range want {
				if math.Float64bits(got.F[i]) != math.Float64bits(want[i]) {
					t.Errorf("MapFInto n=%d: element %d differs", n, i)
					return
				}
			}
		})
		if !slices.Equal(in.F, orig) {
			t.Fatalf("n=%d: a Shared input was written through", n)
		}
	}
}

// TestZipIPBitIdentical adds two Shared Int64 tensors from parallel callers,
// each offering the first operand to write over.
func TestZipIPBitIdentical(t *testing.T) {
	n := 30_000
	a, b := NewTensor(KI64, n), NewTensor(KI64, n)
	fillSeq(a)
	fillSeq(b)
	a.MarkShared()
	b.MarkShared()
	orig := slices.Clone(a.I)
	want := make([]int64, n)
	for i := range want {
		want[i] = a.I[i] + b.I[i]
	}
	inParallel(func() {
		if got := a.ZipIInto(b, AddI64, a); !slices.Equal(got.I, want) {
			t.Error("ZipIInto from parallel callers differs from the serial loop")
		}
	})
	if !slices.Equal(a.I, orig) {
		t.Fatal("a Shared operand was written through")
	}
}

func TestGaussianBlurParallelMatchesSerial(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {17, 33}, {120, 200}} {
		img := NewTensor(KR64, dims[0], dims[1])
		fillSeq(img)
		want := GaussianBlur3x3(img)
		inParallel(func() {
			got := GaussianBlur3x3(img)
			for i := range want.F {
				if math.Float64bits(got.F[i]) != math.Float64bits(want.F[i]) {
					t.Errorf("blur %v: pixel %d differs", dims, i)
					return
				}
			}
		})
	}
}

func TestHistogramParallelMatchesSerial(t *testing.T) {
	data := NewTensor(KI64, 100_000)
	fillSeq(data)
	want := HistogramBins(97, data)
	inParallel(func() {
		if got := HistogramBins(97, data); !slices.Equal(got.I, want.I) {
			t.Errorf("histogram from parallel callers: %v, want %v", got.I, want.I)
		}
	})
}

func TestHistogramOutOfRangeThrows(t *testing.T) {
	data := NewTensor(KI64, 10)
	data.I[7] = 1000
	defer func() {
		r := recover()
		exc, ok := r.(*Exception)
		if !ok || exc.Kind != ExcPartRange {
			t.Fatalf("expected ExcPartRange, got %v", r)
		}
	}()
	HistogramBins(256, data)
	t.Fatal("unreachable: out-of-range value must throw")
}

// TestDotParallelBitIdentical holds DotMM and DotMV, whose BLAS kernels split
// their rows into bands, to a plain triple loop bit-for-bit at k ≤ 64 (one
// kk block: the loop's own order), with more bands than rows allowed.
func TestDotParallelBitIdentical(t *testing.T) {
	defer gort.GOMAXPROCS(gort.GOMAXPROCS(8))
	for _, dims := range [][3]int{{3, 64, 1 << 12}, {67, 45, 129}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b, v := NewTensor(KR64, m, k), NewTensor(KR64, k, n), NewTensor(KR64, k)
		fillSeq(a)
		fillSeq(b)
		fillSeq(v)
		mm, mv := DotMM(a, b), DotMV(a, v)
		for i := 0; i < m; i++ {
			sv := 0.0
			for p := 0; p < k; p++ {
				sv += a.F[i*k+p] * v.F[p]
			}
			if math.Float64bits(mv.F[i]) != math.Float64bits(sv) {
				t.Fatalf("DotMV %v: element %d differs", dims, i)
			}
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a.F[i*k+p] * b.F[p*n+j]
				}
				if math.Float64bits(mm.F[i*n+j]) != math.Float64bits(s) {
					t.Fatalf("DotMM %v: element (%d,%d) differs", dims, i, j)
				}
			}
		}
	}
}

func TestAtomicSharedFlag(t *testing.T) {
	tt := NewTensor(KR64, 4)
	if tt.IsShared() {
		t.Fatal("fresh tensor must not be shared")
	}
	tt.MarkShared()
	if !tt.IsShared() {
		t.Fatal("MarkShared must stick")
	}
}
