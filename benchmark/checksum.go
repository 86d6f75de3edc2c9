package main

import (
	"fmt"

	"wolfc/internal/expr"
	"wolfc/internal/runtime"
)

// checksum renders a program result in the form expected/*.txt stores. The
// compiled code (unboxed values and tensors), the Go references (slices)
// and the interpreter (expressions) all reduce to the same text when they
// computed the same thing: element count, sum, and a position-weighted sum
// that a wrong order would change. Reals print to 8 significant digits, so
// a different summation order inside Dot does not read as a wrong answer.
func checksum(v any) string {
	switch x := v.(type) {
	case int64:
		return fmt.Sprintf("%d", x)
	case float64:
		return fmt.Sprintf("%.8g", x)
	case []int64:
		var sum, wsum int64
		for i, e := range x {
			sum += e
			wsum += e * int64(i%7+1)
		}
		return fmt.Sprintf("n=%d sum=%d wsum=%d", len(x), sum, wsum)
	case []float64:
		var a realSums
		a.add(x)
		return a.String()
	case [][2]float64:
		var a realSums
		for i := range x {
			a.add(x[i][:])
		}
		return a.String()
	case *runtime.Tensor:
		switch x.Elem {
		case runtime.KI64:
			return checksum(x.I)
		case runtime.KR64:
			return checksum(x.F)
		}
		// A tensor of tensors (NestList's list of points): rows in order.
		var a realSums
		for _, row := range x.O {
			a.add(row.(*runtime.Tensor).F)
		}
		return a.String()
	case expr.Expr:
		return checksum(flatten(x))
	}
	return fmt.Sprintf("unsupported %T", v)
}

// realSums accumulates a real checksum piecewise, so that checking a large
// result allocates nothing.
type realSums struct {
	n         int
	sum, wsum float64
}

func (a *realSums) add(v []float64) {
	for _, e := range v {
		a.sum += e
		a.wsum += e * float64(a.n%7+1)
		a.n++
	}
}

func (a realSums) String() string {
	return fmt.Sprintf("n=%d sum=%.8g wsum=%.8g", a.n, a.sum, a.wsum)
}

// flatten turns an interpreter result into the scalar or flat slice the
// compiled code would have returned for it.
func flatten(e expr.Expr) any {
	var ints []int64
	var reals []float64
	allInt, atom := true, true
	expr.Walk(e, func(x expr.Expr) bool {
		switch v := x.(type) {
		case *expr.Normal:
			atom = false
		case *expr.Integer:
			ints = append(ints, v.Int64())
			reals = append(reals, float64(v.Int64()))
		case *expr.Real:
			allInt = false
			reals = append(reals, v.V)
		}
		return true
	})
	switch {
	case atom && allInt && len(ints) == 1:
		return ints[0]
	case atom && len(reals) == 1:
		return reals[0]
	case allInt:
		return ints
	}
	return reals
}
