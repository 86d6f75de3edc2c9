// Package blas is the repository's stand-in for the Intel MKL library the
// paper's Dot benchmark calls into (§6): a small set of hand-optimised dense
// kernels. Both the bytecode VM and the new compiler's runtime route matrix
// operations here, mirroring the paper's observation that all
// implementations share one BLAS and therefore show no performance
// difference on Dot. The kernels are deliberately not abortable, like MKL.
//
// The matrix kernels split their output rows into one static band per
// GOMAXPROCS (the threaded-MKL analogue). Each output row is owned by one
// band and keeps the serial per-element accumulation order, so banded
// results are bit-identical to the serial loops. DDot stays serial: its
// single accumulator would need a split reduction, which changes FP
// rounding order.
package blas

import (
	"runtime"
	"sync"
)

// gemmFlopGrain is the minimum ~flop count a band must amortise; below it
// the fork overhead beats the loop and the kernel stays on the caller.
const gemmFlopGrain = 1 << 17

// rowBands runs body over the rows [0, m), each costing rowFlops, in at most
// one contiguous band per GOMAXPROCS and at least gemmFlopGrain flops per
// band. The caller runs the last band itself.
func rowBands(m, rowFlops int, body func(lo, hi int)) {
	bands := min(runtime.GOMAXPROCS(0), m, m*rowFlops/gemmFlopGrain)
	if bands <= 1 {
		body(0, m)
		return
	}
	var wg sync.WaitGroup
	wg.Add(bands - 1)
	for b := 0; b < bands-1; b++ {
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(b*m/bands, (b+1)*m/bands)
	}
	body((bands-1)*m/bands, m)
	wg.Wait()
}

// DGemm computes C = A·B for row-major dense matrices, A being m×k and B
// k×n; C must have length m*n. Within a band the loop is the classic ikj
// blocked order, which keeps the B row hot in cache. Every element of C
// accumulates its k products in the same (kk-block, p) order regardless of
// banding, so output is bit-identical to one band.
func DGemm(m, k, n int, a, b, c []float64) {
	rowBands(m, 2*k*n, func(lo, hi int) {
		const block = 64
		clear(c[lo*n : hi*n])
		for ii := lo; ii < hi; ii += block {
			iMax := min(ii+block, hi)
			for kk := 0; kk < k; kk += block {
				kMax := min(kk+block, k)
				for i := ii; i < iMax; i++ {
					arow := a[i*k : (i+1)*k]
					crow := c[i*n : (i+1)*n]
					for p := kk; p < kMax; p++ {
						aip := arow[p]
						brow := b[p*n : (p+1)*n]
						for j := 0; j < n; j++ {
							crow[j] += aip * brow[j]
						}
					}
				}
			}
		}
	})
}

// DGemv computes y = A·x for a row-major m×n matrix. Each output element is
// an independent row dot product, so row banding preserves bit-identity.
func DGemv(m, n int, a, x, y []float64) {
	rowBands(m, 2*n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			row := a[i*n : (i+1)*n]
			for j, xv := range x {
				s += row[j] * xv
			}
			y[i] = s
		}
	})
}

// DDot returns the inner product of two equal-length vectors. Deliberately
// serial: partitioning the sum would reassociate floating-point addition
// and break bit-identity with the sequential result.
func DDot(x, y []float64) float64 {
	s := 0.0
	for i, xv := range x {
		s += xv * y[i]
	}
	return s
}

// DAxpy computes y += alpha*x.
func DAxpy(alpha float64, x, y []float64) {
	for i, xv := range x {
		y[i] += alpha * xv
	}
}

// DSum returns the sum of the elements of x.
func DSum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// ISum returns the sum of the elements of x with int64 wraparound.
func ISum(x []int64) int64 {
	var s int64
	for _, v := range x {
		s += v
	}
	return s
}
