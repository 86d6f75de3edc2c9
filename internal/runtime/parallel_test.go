package runtime

import (
	"math"
	"testing"
)

// serialMapF is the pre-pool reference loop the parallel kernels must match
// bit-for-bit.
func serialMapF(t *Tensor, f func(float64) float64) *Tensor {
	out := NewTensor(KR64, t.Dims...)
	for i := range out.F {
		out.F[i] = f(t.F[i])
	}
	return out
}

func fillSeq(t *Tensor) {
	for i := range t.F {
		t.F[i] = 0.001*float64(i) + 0.5
	}
	for i := range t.I {
		t.I[i] = int64(i % 97)
	}
}

// TestParallelKernelsBitIdentical sweeps worker counts and grain sizes —
// including grains larger than the input, which forces the serial fast
// path — and requires exact equality with the serial loops.
func TestParallelKernelsBitIdentical(t *testing.T) {
	for _, n := range []int{1, 100, 5000, 50_000} {
		in := NewTensor(KR64, n)
		fillSeq(in)
		want := serialMapF(in, math.Sqrt)
		for _, workers := range []int{1, 2, 4, 8} {
			for _, grain := range []int{1, 64, 4096, n + 1} {
				prev := setGrainSize(grain)
				got := in.MapFP(workers, math.Sqrt)
				setGrainSize(prev)
				for i := range want.F {
					if math.Float64bits(got.F[i]) != math.Float64bits(want.F[i]) {
						t.Fatalf("MapFP(n=%d workers=%d grain=%d): element %d differs", n, workers, grain, i)
					}
				}
			}
		}
	}
}

func TestZipIPBitIdentical(t *testing.T) {
	n := 30_000
	a := NewTensor(KI64, n)
	b := NewTensor(KI64, n)
	fillSeq(a)
	fillSeq(b)
	want := a.ZipIP(1, b, AddI64)
	for _, workers := range []int{2, 8} {
		got := a.ZipIP(workers, b, AddI64)
		for i := range want.I {
			if got.I[i] != want.I[i] {
				t.Fatalf("ZipIP workers=%d: element %d differs", workers, i)
			}
		}
	}
}

func TestGaussianBlurParallelMatchesSerial(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {17, 33}, {120, 200}} {
		rows, cols := dims[0], dims[1]
		img := NewTensor(KR64, rows, cols)
		fillSeq(img)
		want := GaussianBlur3x3P(1, img)
		for _, workers := range []int{2, 4, 8} {
			prev := setGrainSize(1)
			got := GaussianBlur3x3P(workers, img)
			setGrainSize(prev)
			for i := range want.F {
				if math.Float64bits(got.F[i]) != math.Float64bits(want.F[i]) {
					t.Fatalf("blur %dx%d workers=%d: pixel %d differs", rows, cols, workers, i)
				}
			}
		}
	}
}

func TestHistogramParallelMatchesSerial(t *testing.T) {
	n := 100_000
	data := NewTensor(KI64, n)
	fillSeq(data)
	want := HistogramBinsP(1, 97, data)
	for _, workers := range []int{2, 4, 8} {
		prev := setGrainSize(1)
		got := HistogramBinsP(workers, 97, data)
		setGrainSize(prev)
		for i := range want.I {
			if got.I[i] != want.I[i] {
				t.Fatalf("histogram workers=%d: bin %d got %d want %d", workers, i, got.I[i], want.I[i])
			}
		}
	}
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
	HistogramBinsP(4, 256, data)
	t.Fatal("unreachable: out-of-range value must throw")
}

func TestDotParallelBitIdentical(t *testing.T) {
	m, k, n := 67, 129, 45
	a := NewTensor(KR64, m, k)
	b := NewTensor(KR64, k, n)
	fillSeq(a)
	fillSeq(b)
	want := DotMMP(1, a, b)
	for _, workers := range []int{2, 4, 8} {
		got := DotMMP(workers, a, b)
		for i := range want.F {
			if math.Float64bits(got.F[i]) != math.Float64bits(want.F[i]) {
				t.Fatalf("DotMMP workers=%d: element %d differs", workers, i)
			}
		}
	}
	v := NewTensor(KR64, k)
	fillSeq(v)
	wantMV := DotMVP(1, a, v)
	gotMV := DotMVP(8, a, v)
	for i := range wantMV.F {
		if math.Float64bits(gotMV.F[i]) != math.Float64bits(wantMV.F[i]) {
			t.Fatalf("DotMVP: element %d differs", i)
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
	// Concurrent acquire/release nets out to zero.
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				tt.Acquire()
			}
			for i := 0; i < 1000; i++ {
				tt.Release()
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if tt.RefCount() != 0 {
		t.Fatalf("concurrent acquire/release left refcount %d", tt.RefCount())
	}
}
