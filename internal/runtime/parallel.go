// Parallel-runtime surface: the process-wide knobs compiled code and the
// benchmark harness tune (worker count, grain size) plus the data-parallel
// benchmark kernels — 3×3 Gaussian blur and fixed-bin histogram — that the
// compiler exposes as natives. Partitioning is always over independent
// output ranges (rows for blur, per-worker private bins for the histogram),
// so results are bit-identical to the serial loops regardless of split.
package runtime

import (
	"sync/atomic"

	"wolfc/internal/runtime/par"
)

// grainSize is the minimum number of flat elements below which the
// element-wise kernels stay serial: forking costs more than the loop. The
// default (4096) clears the crossover measured on the element-wise Map
// benchmark with an order of magnitude to spare.
var grainSize atomic.Int64

const defaultGrainSize = 4096

// GrainSize returns the current serial-fast-path threshold.
func GrainSize() int {
	if g := grainSize.Load(); g > 0 {
		return int(g)
	}
	return defaultGrainSize
}

// setGrainSize overrides the serial-fast-path threshold and returns the
// previous effective value; n <= 0 restores the default. The package's tests
// lower it to reach the parallel path on small inputs.
func setGrainSize(n int) int {
	prev := GrainSize()
	if n < 0 {
		n = 0
	}
	grainSize.Store(int64(n))
	return prev
}

// SetMaxWorkers sets the process-wide default parallel width (0 restores
// the GOMAXPROCS default) and returns the previous setting. Per-call worker
// counts — the compiled Parallelism option — override this default.
func SetMaxWorkers(n int) int { return par.SetMaxWorkers(n) }

// MaxWorkers reports the configured default width (0 = GOMAXPROCS).
func MaxWorkers() int { return par.MaxWorkers() }

// GaussianBlur3x3P applies the benchmark's 3×3 binomial (Gaussian) stencil
// to a rank-2 Real64 tensor, partitioned by interior rows. Each output row
// reads only input rows i-1..i+1 and writes only row i, and the per-pixel
// summation order matches the serial reference exactly, so any row split
// yields bit-identical output. Border pixels stay zero, as in the serial
// benchmark kernel.
func GaussianBlur3x3P(workers int, img *Tensor) *Tensor {
	if img.Elem != KR64 || len(img.Dims) != 2 {
		Throw(ExcType, "GaussianBlur: expected a rank-2 Real64 tensor")
	}
	rows, cols := img.Dims[0], img.Dims[1]
	out := NewTensor(KR64, rows, cols)
	if rows < 3 || cols < 3 {
		return out
	}
	src, dst := img.F, out.F
	// Grain in rows: keep at least ~one grain's worth of pixels per chunk.
	rowGrain := GrainSize() / cols
	if rowGrain < 1 {
		rowGrain = 1
	}
	par.For(workers, rows-2, rowGrain, func(lo, hi int) {
		for i := lo + 1; i < hi+1; i++ {
			for j := 1; j < cols-1; j++ {
				dst[i*cols+j] = (src[(i-1)*cols+j-1] + 2*src[(i-1)*cols+j] + src[(i-1)*cols+j+1] +
					2*src[i*cols+j-1] + 4*src[i*cols+j] + 2*src[i*cols+j+1] +
					src[(i+1)*cols+j-1] + 2*src[(i+1)*cols+j] + src[(i+1)*cols+j+1]) / 16
			}
		}
	})
	return out
}

// HistogramBinsP counts occurrences of each value of a rank-1 Integer64
// tensor into `bins` buckets (values must lie in [0, bins)), partitioned by
// input range with private per-worker bin arrays merged by integer
// addition afterwards — a tree reduction flattened to one level, exact
// because integer addition is associative. Out-of-range values raise the
// Part exception like the bounds-checked serial loop they replace.
func HistogramBinsP(workers, bins int, data *Tensor) *Tensor {
	if data.Elem != KI64 || len(data.Dims) != 1 {
		Throw(ExcType, "Histogram: expected a rank-1 Integer64 tensor")
	}
	if bins <= 0 {
		Throw(ExcPartRange, "Histogram: nonpositive bin count %d", bins)
	}
	out := NewTensor(KI64, bins)
	n := len(data.I)
	if n == 0 {
		return out
	}
	w := par.Width(workers)
	parts := w
	if maxParts := (n + GrainSize() - 1) / GrainSize(); parts > maxParts {
		parts = maxParts
	}
	if parts < 1 {
		parts = 1
	}
	locals := make([][]int64, parts)
	// One par.For chunk per part: each part owns a contiguous input slice
	// and a private bin array, so there is no write sharing at all.
	par.For(workers, parts, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			local := make([]int64, bins)
			for _, v := range data.I[p*n/parts : (p+1)*n/parts] {
				if v < 0 || v >= int64(bins) {
					Throw(ExcPartRange, "Histogram: value %d outside [0, %d)", v, bins)
				}
				local[v]++
			}
			locals[p] = local
		}
	})
	for _, local := range locals {
		for b, c := range local {
			out.I[b] += c
		}
	}
	return out
}
