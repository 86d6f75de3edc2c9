package main

import (
	"math"

	"wolfc/internal/blas"
)

// Hand-written Go implementations of the nine benchmark programs: the
// stand-ins for the paper's hand-tuned C (§6, Figure 2's baseline). Each
// mirrors the Wolfram source in programs/ step for step. They are copied
// here, not imported from internal/bench, so that an edit there cannot
// shift this benchmark's baseline. Dot shares wolfc/internal/blas with the
// compiled code on purpose: the paper's Dot row compares two callers of
// the same BLAS.

func fnv1aRef(s string) int64 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return int64(h)
}

func mandelbrotRef(maxIter int64) int64 {
	total := int64(0)
	for xi := 0; xi <= 20; xi++ {
		cr := -1.0 + 0.1*float64(xi)
		for yi := 0; yi <= 15; yi++ {
			ci := -1.0 + 0.1*float64(yi)
			zr, zi := 0.0, 0.0
			iters := int64(0)
			for iters < maxIter && zr*zr+zi*zi < 4.0 {
				t := zr*zr - zi*zi + cr
				zi = 2.0*zr*zi + ci
				zr = t
				iters++
			}
			total += iters
		}
	}
	return total
}

// primesBelow returns all primes < n: the seed table primeq embeds.
func primesBelow(n int) []int64 {
	sieve := make([]bool, n)
	var out []int64
	for i := 2; i < n; i++ {
		if sieve[i] {
			continue
		}
		out = append(out, int64(i))
		for j := i * i; j < n; j += i {
			sieve[j] = true
		}
	}
	return out
}

// primeqRef mirrors the Wolfram source: seed-table binary search below
// 2^14, four-witness Rabin-Miller above.
func primeqRef(limit int64, seeds []int64) int64 {
	count := int64(0)
	for n := int64(2); n < limit; n++ {
		isP := false
		if n < 16384 {
			lo, hi := 0, len(seeds)-1
			for lo <= hi {
				mid := (lo + hi) / 2
				switch {
				case seeds[mid] == n:
					isP = true
					lo = hi + 1
				case seeds[mid] < n:
					lo = mid + 1
				default:
					hi = mid - 1
				}
			}
		} else if n%2 != 0 {
			d, r := n-1, 0
			for d%2 == 0 {
				d /= 2
				r++
			}
			isP = true
			for wi := 0; wi < 4 && isP; wi++ {
				witness := seeds[wi]
				x, b, e := int64(1), witness%n, d
				for e > 0 {
					if e%2 == 1 {
						x = x * b % n
					}
					b = b * b % n
					e /= 2
				}
				if x != 1 && x != n-1 {
					composite := true
					for i := 1; i < r && composite; i++ {
						x = x * x % n
						if x == n-1 {
							composite = false
						}
					}
					if composite {
						isP = false
					}
				}
			}
		}
		if isP {
			count++
		}
	}
	return count
}

func fibRef(n int64) int64 {
	if n < 2 {
		return n
	}
	return fibRef(n-1) + fibRef(n-2)
}

func blurRef(img []float64, rows, cols int) []float64 {
	out := make([]float64, rows*cols)
	for i := 1; i < rows-1; i++ {
		for j := 1; j < cols-1; j++ {
			out[i*cols+j] = (img[(i-1)*cols+j-1] + 2*img[(i-1)*cols+j] + img[(i-1)*cols+j+1] +
				2*img[i*cols+j-1] + 4*img[i*cols+j] + 2*img[i*cols+j+1] +
				img[(i+1)*cols+j-1] + 2*img[(i+1)*cols+j] + img[(i+1)*cols+j+1]) / 16
		}
	}
	return out
}

func histogramRef(data []int64) []int64 {
	bins := make([]int64, 256)
	for _, v := range data {
		bins[v]++
	}
	return bins
}

// qsortRef sorts a copy with the same middle-pivot Lomuto scheme, taking
// the comparator as a function value (Go pays the indirect call too).
func qsortRef(v []float64, cmp func(a, b float64) bool) []float64 {
	out := append([]float64{}, v...)
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if lo >= hi {
			return
		}
		m := (lo + hi) / 2
		out[m], out[hi] = out[hi], out[m]
		pivot := out[hi]
		i := lo - 1
		for j := lo; j < hi; j++ {
			if cmp(out[j], pivot) {
				i++
				out[i], out[j] = out[j], out[i]
			}
		}
		i++
		out[i], out[hi] = out[hi], out[i]
		rec(lo, i-1)
		rec(i+1, hi)
	}
	rec(0, len(out)-1)
	return out
}

func dotRef(n int, a, b []float64) []float64 {
	out := make([]float64, n*n)
	blas.DGemm(n, n, n, a, b, out)
	return out
}

// randomWalkRef generates the Figure 1 walk from the supplied uniform
// [0,1) source.
func randomWalkRef(length int, randReal func() float64) [][2]float64 {
	out := make([][2]float64, length+1)
	x, y := 0.0, 0.0
	for i := 1; i <= length; i++ {
		arg := randReal() * 6.283185307179586
		x -= math.Cos(arg)
		y += math.Sin(arg)
		out[i] = [2]float64{x, y}
	}
	return out
}
