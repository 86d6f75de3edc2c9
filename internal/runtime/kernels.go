// The benchmark's image and statistics kernels — 3×3 Gaussian blur and
// fixed-bin histogram — that the compiler exposes as natives. Both run on
// the caller's goroutine, like every loop of the tensor runtime.
package runtime

// GaussianBlur3x3 applies the benchmark's 3×3 binomial (Gaussian) stencil
// to a rank-2 Real64 tensor. Border pixels stay zero, as in the benchmark
// kernel.
func GaussianBlur3x3(img *Tensor) *Tensor {
	if img.Elem != KR64 || len(img.Dims) != 2 {
		Throw(ExcType, "GaussianBlur: expected a rank-2 Real64 tensor")
	}
	rows, cols := img.Dims[0], img.Dims[1]
	out := NewTensor(KR64, rows, cols)
	src, dst := img.F, out.F
	for i := 1; i < rows-1; i++ {
		for j := 1; j < cols-1; j++ {
			dst[i*cols+j] = (src[(i-1)*cols+j-1] + 2*src[(i-1)*cols+j] + src[(i-1)*cols+j+1] +
				2*src[i*cols+j-1] + 4*src[i*cols+j] + 2*src[i*cols+j+1] +
				src[(i+1)*cols+j-1] + 2*src[(i+1)*cols+j] + src[(i+1)*cols+j+1]) / 16
		}
	}
	return out
}

// HistogramBins counts occurrences of each value of a rank-1 Integer64
// tensor into `bins` buckets. Values must lie in [0, bins): one outside
// raises the Part exception like the bounds-checked loop it replaces.
func HistogramBins(bins int, data *Tensor) *Tensor {
	if data.Elem != KI64 || len(data.Dims) != 1 {
		Throw(ExcType, "Histogram: expected a rank-1 Integer64 tensor")
	}
	if bins <= 0 {
		Throw(ExcPartRange, "Histogram: nonpositive bin count %d", bins)
	}
	out := NewTensor(KI64, bins)
	for _, v := range data.I {
		if v < 0 || v >= int64(bins) {
			Throw(ExcPartRange, "Histogram: value %d outside [0, %d)", v, bins)
		}
		out.I[v]++
	}
	return out
}
