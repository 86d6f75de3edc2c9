// Package runtime is the compiled-code runtime for the new compiler (paper
// §4.5, §4.6): typed dense tensors with copy-on-write sharing, checked
// machine arithmetic whose numeric exceptions drive the soft interpreter
// fallback (F2), string operations, symbolic Expression operations evaluated by
// threaded interpretation through the engine (F8), and the abort flag the
// inserted abort checks poll (F3).
package runtime

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"slices"
	"sync/atomic"

	"wolfc/internal/blas"
	"wolfc/internal/expr"
	"wolfc/internal/obs"
)

// Engine is the compiled code's view of the hosting Wolfram Engine: it
// evaluates escaped expressions (KernelFunction, F9) and exposes the abort
// flag and random state. In standalone exported code there is no engine and
// these features are disabled (paper §4.6).
type Engine interface {
	EvalExpr(e expr.Expr) (expr.Expr, error)
	Aborted() bool
	RandReal() float64
	RandInt(lo, hi int64) int64
}

// NeedEngine returns eng for a native that needs the engine, what names it.
// Standalone code has no engine: there the native throws, as an escape does.
func NeedEngine(eng Engine, what string) Engine {
	if eng == nil {
		Throw(ExcKernel, "%s requires the engine (disabled in standalone mode)", what)
	}
	return eng
}

// Exception kinds raised by compiled code. They unwind (as Go panics) to
// the CompiledCodeFunction wrapper, which converts them into the soft
// fallback or an abort (paper §4.5).
type ExceptionKind int

const (
	ExcOverflow ExceptionKind = iota
	ExcPartRange
	ExcDivideByZero
	ExcAbort
	ExcKernel // interpreter escape failed
	ExcType
	// ExcNoMatch is the compiled image of a pattern-dispatch miss: a
	// decision tree compiled from DownValues reached a leaf no rule covers.
	// The tiering engine converts it into an F2 guard miss (interpreter
	// rules take over), never a soft failure — a miss is a property of the
	// arguments, not of the compiled code.
	ExcNoMatch
	// ExcDepth is compiled call nesting past the closure backend's frame
	// stack limit: a soft failure, so the interpreter re-evaluates the call
	// and reports its own $RecursionLimit instead of the process dying of Go
	// stack exhaustion.
	ExcDepth
)

// Exception is the panic payload for compiled-code runtime errors.
type Exception struct {
	Kind ExceptionKind
	Msg  string
}

func (e *Exception) Error() string { return e.Msg }

// excCounters counts compiled code's exceptions by kind for /metrics, where
// they are caught (Caught). A throw is already the expensive path (panic +
// fallback re-evaluation), so these count unconditionally.
var excCounters = [...]*obs.Counter{
	ExcOverflow:     obs.NewCounter("exc_overflow"),
	ExcPartRange:    obs.NewCounter("exc_part_range"),
	ExcDivideByZero: obs.NewCounter("exc_divide_by_zero"),
	ExcAbort:        obs.NewCounter("exc_abort"),
	ExcKernel:       obs.NewCounter("exc_kernel"),
	ExcType:         obs.NewCounter("exc_type"),
	ExcNoMatch:      obs.NewCounter("exc_no_match"),
	ExcDepth:        obs.NewCounter("exc_depth"),
}

// Throw raises a runtime exception. It counts nothing: the constant folder
// calls the scalar natives' functions too, and a throw it catches declines a
// fold; nothing threw at run time.
func Throw(kind ExceptionKind, format string, args ...any) {
	panic(&Exception{Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// Caught is how a caller of compiled code reads a recovered panic value r:
// the Exception it carries, counted for /metrics, or nil when r is not one.
func Caught(r any) *Exception {
	exc, ok := r.(*Exception)
	if ok && int(exc.Kind) < len(excCounters) {
		excCounters[exc.Kind].Inc()
	}
	return exc
}

// --- checked machine arithmetic ---

// MulOK takes the full 128-bit product: bits.Mul64 gives the unsigned high
// word, the two masked subtractions make it the signed one, and the product
// fits iff that is the sign extension of the low word. No division, and
// MinInt64 * -1 (high word 0, low word negative) is caught.
func MulOK(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	p := int64(lo)
	return p, int64(hi)-(a>>63)&b-(b>>63)&a == p>>63
}

// throwOverflow is the out-of-line exit of the checked operations: taking no
// arguments keeps AddI64 and SubI64 under the inliner's budget (verify.sh
// pins that), so a loop counter's increment is not a call.
//
//go:noinline
func throwOverflow() { Throw(ExcOverflow, "IntegerOverflow") }

// AddI64 adds with overflow checking: the sum overflowed iff both operands
// differ in sign from it.
func AddI64(a, b int64) int64 {
	s := a + b
	if (a^s)&(b^s) < 0 {
		throwOverflow()
	}
	return s
}

// SubI64 subtracts with overflow checking: the difference overflowed iff the
// operands differ in sign and the result's sign is not the minuend's.
func SubI64(a, b int64) int64 {
	d := a - b
	if (a^b)&(a^d) < 0 {
		throwOverflow()
	}
	return d
}

// MulI64 multiplies with overflow checking.
func MulI64(a, b int64) int64 {
	p, ok := MulOK(a, b)
	if !ok {
		throwOverflow()
	}
	return p
}

// NegI64 negates with overflow checking.
func NegI64(a int64) int64 {
	if a == math.MinInt64 {
		Throw(ExcOverflow, "IntegerOverflow")
	}
	return -a
}

// RealToI64 converts a real that is already integral (the result of Floor,
// Ceiling or Round) to a machine integer, and throws when it does not fit:
// the interpreter returns a bignum there. NaN and the infinities fail the
// range test too.
func RealToI64(x float64) int64 {
	if !(x >= -(1<<63) && x < 1<<63) {
		Throw(ExcOverflow, "IntegerOverflow")
	}
	return int64(x)
}

// ShlI64 shifts left with overflow checking. A negative count is a numeric
// exception too: the interpreter leaves that call unevaluated.
func ShlI64(a, n int64) int64 {
	if n < 0 {
		Throw(ExcOverflow, "NegativeShift")
	}
	r := a << uint64(n)
	if r>>uint64(n) != a {
		Throw(ExcOverflow, "IntegerOverflow")
	}
	return r
}

// ShrI64 shifts right arithmetically; a negative count is a numeric
// exception, as in ShlI64.
func ShrI64(a, n int64) int64 {
	if n < 0 {
		Throw(ExcOverflow, "NegativeShift")
	}
	return a >> uint64(n)
}

// PowI64 computes integer powers with overflow checking by repeated
// squaring; negative exponents are a numeric exception (exact rationals
// require the interpreter). The base is squared only while exponent bits
// remain, so every square is a factor of the true power's magnitude: a
// checked multiply throws exactly when the power does not fit.
func PowI64(base, exp int64) int64 {
	if exp < 0 {
		Throw(ExcOverflow, "NegativePower")
	}
	result := int64(1)
	for {
		if exp&1 != 0 {
			result = MulI64(result, base)
		}
		if exp >>= 1; exp == 0 {
			return result
		}
		base = MulI64(base, base)
	}
}

// ModI64 is the language's Mod (sign follows the modulus).
func ModI64(a, m int64) int64 {
	if m == 0 {
		Throw(ExcDivideByZero, "Mod by zero")
	}
	return ModNZ(a, m)
}

// ModNZ is ModI64 for a modulus known not to be zero: what compiled code
// runs when the modulus is a literal.
func ModNZ(a, m int64) int64 {
	r := a % m
	if r != 0 && (r < 0) != (m < 0) {
		r += m
	}
	return r
}

// QuotI64 is floor division, with overflow checking.
func QuotI64(a, m int64) int64 {
	if m == 0 {
		Throw(ExcDivideByZero, "Quotient by zero")
	}
	if a == math.MinInt64 && m == -1 {
		Throw(ExcOverflow, "IntegerOverflow")
	}
	return QuotNZ(a, m)
}

// QuotNZ is QuotI64 for a divisor known to be neither 0 nor -1 (no quotient
// can overflow then).
func QuotNZ(a, m int64) int64 {
	q := a / m
	if a%m != 0 && (a < 0) != (m < 0) {
		q--
	}
	return q
}

// PowC computes complex powers.
func PowC(b, e complex128) complex128 {
	if b == 0 {
		if real(e) > 0 {
			return 0
		}
		Throw(ExcDivideByZero, "0 to a nonpositive complex power")
	}
	logB := complex(math.Log(AbsC(b)), math.Atan2(imag(b), real(b)))
	p := e * logB
	m := math.Exp(real(p))
	return complex(m*math.Cos(imag(p)), m*math.Sin(imag(p)))
}

// PowCInt computes z^n by repeated squaring over the exponent's magnitude,
// taken as a uint64 so that n = MinInt64 (whose negation does not fit) is
// one more squaring, not an endless recursion. A negative power whose
// positive one overflows is 0, as the interpreter says: the squares reach
// +Inf, and Go's complex product turns the next ones into NaN, whose
// reciprocal would be NaN too. A base with a NaN part stays NaN.
func PowCInt(b complex128, n int64) complex128 {
	if n < 0 {
		p := powCU(b, -uint64(n))
		if (cmplx.IsInf(p) || cmplx.IsNaN(p)) && !math.IsNaN(real(b)) && !math.IsNaN(imag(b)) {
			return 0
		}
		return 1 / p
	}
	return powCU(b, uint64(n))
}

func powCU(b complex128, n uint64) complex128 {
	out := complex128(1)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			out *= b
		}
		b *= b
	}
	return out
}

// AbsC is the complex modulus.
func AbsC(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

// Kind is a runtime element kind for tensors.
type Kind uint8

const (
	KI64 Kind = iota
	KR64
	KC64
	KBool
	KObj // nested tensors, strings, closures, expressions
)

// Tensor is the compiled runtime's dense array. One of the element slices
// is non-nil according to Elem. shared implements copy-on-write (F5): it
// marks values that may be aliased outside compiled code (function
// arguments, boxed results), and SetPart copies first when it is set. The Go
// collector frees a tensor, so it carries no reference count. shared is
// read and written atomically so one compiled function can be invoked from
// many goroutines that share argument tensors; it is a plain word (not an
// atomic.Uint32) so vet's copylocks check stays quiet.
type Tensor struct {
	Elem Kind
	Dims []int
	I    []int64
	F    []float64
	C    []complex128
	B    []bool
	O    []any

	shared uint32
	// dims backs Dims for rank 1 and 2: a tensor is two allocations, not
	// three, and never shares its Dims array with the tensor it was shaped
	// after.
	dims [2]int
}

// NewTensor allocates a zeroed tensor.
func NewTensor(elem Kind, dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		if d < 0 {
			Throw(ExcPartRange, "negative tensor dimension %d", d)
		}
		n *= d
	}
	t := &Tensor{Elem: elem}
	if len(dims) <= len(t.dims) {
		t.Dims = t.dims[:copy(t.dims[:], dims)]
	} else {
		t.Dims = append([]int(nil), dims...)
	}
	switch elem {
	case KI64:
		t.I = make([]int64, n)
	case KR64:
		t.F = make([]float64, n)
	case KC64:
		t.C = make([]complex128, n)
	case KBool:
		t.B = make([]bool, n)
	case KObj:
		t.O = make([]any, n)
	}
	return t
}

// FlatLen returns the number of scalar elements.
func (t *Tensor) FlatLen() int {
	n := 1
	for _, d := range t.Dims {
		n *= d
	}
	return n
}

// Len returns the first-dimension length.
func (t *Tensor) Len() int {
	if len(t.Dims) == 0 {
		return 0
	}
	return t.Dims[0]
}

// Copy deep-copies the tensor (one level; nested object elements are shared
// but marked Shared so their own mutation copies).
func (t *Tensor) Copy() *Tensor {
	out := &Tensor{Elem: t.Elem, Dims: append([]int{}, t.Dims...)}
	out.I = append([]int64{}, t.I...)
	out.F = append([]float64{}, t.F...)
	out.C = append([]complex128{}, t.C...)
	out.B = append([]bool{}, t.B...)
	out.O = append([]any{}, t.O...)
	for _, o := range out.O {
		if nt, ok := o.(*Tensor); ok {
			nt.MarkShared()
		}
	}
	return out
}

// MarkShared flags the tensor as possibly aliased from outside compiled
// code, forcing the next mutation through EnsureUnshared to copy.
func (t *Tensor) MarkShared() { atomic.StoreUint32(&t.shared, 1) }

// IsShared reports whether the tensor is flagged as externally aliased.
func (t *Tensor) IsShared() bool { return atomic.LoadUint32(&t.shared) != 0 }

// EnsureUnshared returns t, or a private copy if t may be aliased from
// outside compiled code (the shared flag is set at the ABI boundary:
// unboxed arguments and embedded constants). Aliases created inside
// compiled code are handled statically by the copy-insertion pass.
func (t *Tensor) EnsureUnshared() *Tensor {
	if t.IsShared() {
		return t.Copy()
	}
	return t
}

// Off1 is the bounds test compiled code inlines around every element
// access: a 1-based index i into a dimension of length n resolves to its
// 0-based offset with one unsigned compare. ok is false for zero, negative
// and past-the-end indices; the caller then takes the checked accessor
// below, which resolves negative indices and raises the Part range
// exception.
func Off1(i int64, n int) (off int, ok bool) {
	return int(i - 1), uint64(i-1) < uint64(n)
}

// Off2 is Off1 for a rank-2 index pair: two unsigned compares and the
// row-major offset.
func (t *Tensor) Off2(i, j int64) (off int, ok bool) {
	if len(t.Dims) != 2 {
		return 0, false
	}
	cols := t.Dims[1]
	if uint64(i-1) < uint64(t.Dims[0]) && uint64(j-1) < uint64(cols) {
		return int(i-1)*cols + int(j-1), true
	}
	return 0, false
}

// index resolves a 1-based possibly-negative index for dimension 0.
func (t *Tensor) index(i int64) int {
	n := int64(t.Len())
	if i < 0 {
		i = n + 1 + i
	}
	if i < 1 || i > n {
		Throw(ExcPartRange, "Part: index %d is out of range for a length-%d tensor", i, n)
	}
	return int(i - 1)
}

// Scalar element access for rank-1 tensors: the checked forms are the slow
// path behind Off1; the U forms back macro loops whose indices are in range
// by construction (paper §6 index-check removal).

func (t *Tensor) GetI(i int64) int64       { return t.I[t.index(i)] }
func (t *Tensor) GetF(i int64) float64     { return t.F[t.index(i)] }
func (t *Tensor) GetC(i int64) complex128  { return t.C[t.index(i)] }
func (t *Tensor) GetB(i int64) bool        { return t.B[t.index(i)] }
func (t *Tensor) GetO(i int64) any         { return t.O[t.index(i)] }
func (t *Tensor) GetIU(i int64) int64      { return t.I[i-1] }
func (t *Tensor) GetFU(i int64) float64    { return t.F[i-1] }
func (t *Tensor) GetCU(i int64) complex128 { return t.C[i-1] }
func (t *Tensor) GetBU(i int64) bool       { return t.B[i-1] }
func (t *Tensor) GetOU(i int64) any        { return t.O[i-1] }

// flat2 resolves a rank-2 index pair.
func (t *Tensor) flat2(i, j int64) int {
	rows, cols := int64(t.Dims[0]), int64(t.Dims[1])
	if i < 0 {
		i = rows + 1 + i
	}
	if j < 0 {
		j = cols + 1 + j
	}
	if i < 1 || i > rows || j < 1 || j > cols {
		Throw(ExcPartRange, "Part: index [%d, %d] out of range for %dx%d", i, j, rows, cols)
	}
	return int((i-1)*cols + (j - 1))
}

func (t *Tensor) flat2U(i, j int64) int { return int((i-1)*int64(t.Dims[1]) + (j - 1)) }

func (t *Tensor) GetI2(i, j int64) int64       { return t.I[t.flat2(i, j)] }
func (t *Tensor) GetF2(i, j int64) float64     { return t.F[t.flat2(i, j)] }
func (t *Tensor) GetC2(i, j int64) complex128  { return t.C[t.flat2(i, j)] }
func (t *Tensor) GetI2U(i, j int64) int64      { return t.I[t.flat2U(i, j)] }
func (t *Tensor) GetF2U(i, j int64) float64    { return t.F[t.flat2U(i, j)] }
func (t *Tensor) GetC2U(i, j int64) complex128 { return t.C[t.flat2U(i, j)] }

// A tensor of numeric tensors is one packed array (types.Packed): a row of
// it is a run of its storage, read by copying the run out and written by
// copying one in. A tensor made before its rows are known (NewRows) takes
// their shape from the first row stored; a row of any other shape throws
// ExcType, so a ragged result is the interpreter's to build (F2).

// unshaped is a row dimension no stored row has fixed yet.
const unshaped = -1

// NewRows allocates a tensor of the given leading dimensions whose elements
// are rows of rank rowRank, shape unknown: the first SetRow (SetRow2) fixes
// it. A tensor with no rows at all is complete as it is.
func NewRows(elem Kind, rowRank int, lead ...int) *Tensor {
	n := 1
	for _, d := range lead {
		if d < 0 {
			Throw(ExcPartRange, "negative tensor dimension %d", d)
		}
		n *= d
	}
	if n == 0 {
		return NewTensor(elem, append(lead, make([]int, rowRank)...)...)
	}
	t := &Tensor{Elem: elem}
	dims := t.dims[:0]
	if len(lead)+rowRank > len(t.dims) {
		dims = make([]int, 0, len(lead)+rowRank)
	}
	dims = append(dims, lead...)
	for range rowRank {
		dims = append(dims, unshaped)
	}
	t.Dims = dims
	return t
}

// RowSpan is the storage run of row i of a rank-2 tensor: its flat offset
// and length. ok is false for an index out of range (zero and negative
// included: the checked accessors resolve those) and before the first row
// is stored. Like Off2 it inlines, so storing or reading a vector row costs
// no call on the way to the copy.
func (t *Tensor) RowSpan(i int64) (off, n int, ok bool) {
	if len(t.Dims) != 2 {
		return 0, 0, false
	}
	cols := t.Dims[1]
	if uint64(i-1) < uint64(t.Dims[0]) && cols >= 0 {
		return int(i-1) * cols, cols, true
	}
	return 0, 0, false
}

// Row extracts row i of a tensor of rank 2 or more as a fresh tensor of one
// rank less; negative indices count from the end.
func (t *Tensor) Row(i int64) *Tensor {
	if off, n, ok := t.RowSpan(i); ok {
		out := NewTensor(t.Elem, n)
		copyRun(out, 0, t, off, n)
		return out
	}
	return t.sub(t.index(i), 1)
}

// Row2 extracts the sub-array at [i, j] of a tensor of rank 3 or more.
func (t *Tensor) Row2(i, j int64) *Tensor { return t.sub(t.flat2(i, j), 2) }

// sub copies out the k-th element of the grid of t's first lead dimensions,
// a tensor of the remaining ones (before any row is stored NewTensor throws
// on their negative dimension).
func (t *Tensor) sub(k, lead int) *Tensor {
	out := NewTensor(t.Elem, t.Dims[lead:]...)
	n := out.FlatLen()
	copyRun(out, 0, t, k*n, n)
	return out
}

// copyRun copies n elements of src from offset so into dst at offset do.
func copyRun(dst *Tensor, do int, src *Tensor, so, n int) {
	switch src.Elem {
	case KI64:
		copy(dst.I[do:do+n], src.I[so:so+n])
	case KR64:
		copy(dst.F[do:do+n], src.F[so:so+n])
	case KC64:
		copy(dst.C[do:do+n], src.C[so:so+n])
	case KBool:
		copy(dst.B[do:do+n], src.B[so:so+n])
	case KObj:
		copy(dst.O[do:do+n], src.O[so:so+n])
	}
}

// SetRow stores row as row i of t, a copy, and returns t or the copy
// copy-on-write made. Negative indices count from the end. SetRowU is the
// unchecked index form macro loops over fresh lists use; the row's shape is
// checked by both.
func (t *Tensor) SetRow(i int64, row *Tensor) *Tensor { return t.setSub(t.index(i), 1, row) }

func (t *Tensor) SetRowU(i int64, row *Tensor) *Tensor { return t.setSub(int(i-1), 1, row) }

// SetRow2 stores row as the sub-array at [i, j] of a tensor of rank 3 or
// more; SetRow2U is its unchecked index form.
func (t *Tensor) SetRow2(i, j int64, row *Tensor) *Tensor { return t.setSub(t.flat2(i, j), 2, row) }

func (t *Tensor) SetRow2U(i, j int64, row *Tensor) *Tensor {
	return t.setSub(int(i-1)*t.Dims[1]+int(j-1), 2, row)
}

func (t *Tensor) setSub(k, lead int, row *Tensor) *Tensor {
	u := t.EnsureUnshared()
	rowDims := u.Dims[lead:]
	if len(rowDims) > 0 && rowDims[0] == unshaped {
		copy(rowDims, row.Dims)
		grown := NewTensor(u.Elem, u.FlatLen())
		u.I, u.F, u.C, u.B, u.O = grown.I, grown.F, grown.C, grown.B, grown.O
	} else if !slices.Equal(rowDims, row.Dims) {
		Throw(ExcType, "rows of unequal shape %v and %v", rowDims, row.Dims)
	}
	n := row.FlatLen()
	copyRun(u, k*n, row, 0, n)
	return u
}

// Tile makes a tensor of the given leading dimensions every element of which
// is a copy of row (ConstantArray of a tensor).
func Tile(row *Tensor, lead ...int) *Tensor {
	t := NewTensor(row.Elem, append(lead, row.Dims...)...)
	n := row.FlatLen()
	for k := 0; k*n < t.FlatLen(); k++ {
		copyRun(t, k*n, row, 0, n)
	}
	return t
}

// Take returns the first n rows (elements, at rank 1) of t as a fresh
// tensor (Most).
func (t *Tensor) Take(n int64) *Tensor {
	if n < 0 || n > int64(t.Len()) {
		Throw(ExcPartRange, "take %d from length %d", n, t.Len())
	}
	dims := append([]int{int(n)}, t.Dims[1:]...)
	if n == 0 {
		// No rows, so none to take a shape from: a list of rows none of
		// which was stored (NewRows, Select that matched nothing) is
		// empty at every rank.
		for k, d := range dims {
			if d == unshaped {
				dims[k] = 0
			}
		}
	}
	out := NewTensor(t.Elem, dims...)
	copyRun(out, 0, t, 0, out.FlatLen())
	return out
}

// Set operations return the (possibly fresh) tensor, which compiled code
// rebinds. The checked versions are the slow path behind the inlined
// in-place store: they resolve negative indices and raise the range
// exception before anything is copied. The unsafe versions back macro loops
// over fresh lists: no range check. Both apply copy-on-write.

func (t *Tensor) SetI(i int64, v int64) *Tensor {
	k := t.index(i)
	u := t.EnsureUnshared()
	u.I[k] = v
	return u
}

func (t *Tensor) SetF(i int64, v float64) *Tensor {
	k := t.index(i)
	u := t.EnsureUnshared()
	u.F[k] = v
	return u
}

func (t *Tensor) SetC(i int64, v complex128) *Tensor {
	k := t.index(i)
	u := t.EnsureUnshared()
	u.C[k] = v
	return u
}

func (t *Tensor) SetB(i int64, v bool) *Tensor {
	k := t.index(i)
	u := t.EnsureUnshared()
	u.B[k] = v
	return u
}

func (t *Tensor) SetO(i int64, v any) *Tensor {
	k := t.index(i)
	u := t.EnsureUnshared()
	u.O[k] = v
	return u
}

func (t *Tensor) SetIU(i int64, v int64) *Tensor {
	u := t.EnsureUnshared()
	u.I[i-1] = v
	return u
}

func (t *Tensor) SetFU(i int64, v float64) *Tensor {
	u := t.EnsureUnshared()
	u.F[i-1] = v
	return u
}

func (t *Tensor) SetCU(i int64, v complex128) *Tensor {
	u := t.EnsureUnshared()
	u.C[i-1] = v
	return u
}

func (t *Tensor) SetOU(i int64, v any) *Tensor {
	u := t.EnsureUnshared()
	u.O[i-1] = v
	return u
}

func (t *Tensor) SetI2(i, j int64, v int64) *Tensor {
	k := t.flat2(i, j)
	u := t.EnsureUnshared()
	u.I[k] = v
	return u
}

func (t *Tensor) SetF2(i, j int64, v float64) *Tensor {
	k := t.flat2(i, j)
	u := t.EnsureUnshared()
	u.F[k] = v
	return u
}

func (t *Tensor) SetC2(i, j int64, v complex128) *Tensor {
	k := t.flat2(i, j)
	u := t.EnsureUnshared()
	u.C[k] = v
	return u
}

func (t *Tensor) SetI2U(i, j int64, v int64) *Tensor {
	u := t.EnsureUnshared()
	u.I[u.flat2U(i, j)] = v
	return u
}

func (t *Tensor) SetF2U(i, j int64, v float64) *Tensor {
	u := t.EnsureUnshared()
	u.F[u.flat2U(i, j)] = v
	return u
}

func (t *Tensor) SetC2U(i, j int64, v complex128) *Tensor {
	u := t.EnsureUnshared()
	u.C[u.flat2U(i, j)] = v
	return u
}

// The Fill methods set every element of a freshly allocated tensor to v
// and return it (ConstantArray). A v whose bits are the element zero leaves
// the storage as make delivered it.

func (t *Tensor) FillI(v int64) *Tensor {
	if v != 0 {
		for i := range t.I {
			t.I[i] = v
		}
	}
	return t
}

func (t *Tensor) FillF(v float64) *Tensor {
	if math.Float64bits(v) != 0 {
		for i := range t.F {
			t.F[i] = v
		}
	}
	return t
}

func (t *Tensor) FillC(v complex128) *Tensor {
	if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
		for i := range t.C {
			t.C[i] = v
		}
	}
	return t
}

func (t *Tensor) FillB(v bool) *Tensor {
	if v {
		for i := range t.B {
			t.B[i] = true
		}
	}
	return t
}

func (t *Tensor) FillO(v any) *Tensor {
	for i := range t.O {
		t.O[i] = v
	}
	return t
}

// Elementwise tensor arithmetic (Listable threading in compiled code): the
// natives codegen compiles tensor arithmetic to. Each writes its result into
// dst, an operand the compiler found dying at this instruction (one of t and
// o, or nil for none), and allocates when dst is nil or — belt and braces,
// like own() — flagged Shared. Each element is read before it is written and
// depends on its own index alone, so writing over an operand is the same
// computation.

// sameShape throws unless t and o have equal dimensions: Listable threading
// pairs elements by position, and {{1, 2}, {3, 4}} + {{1, 2, 3, 4}} has no
// pairing though the flat lengths agree.
func (t *Tensor) sameShape(o *Tensor) {
	if !slices.Equal(t.Dims, o.Dims) {
		Throw(ExcType, "Thread: tensors of unequal shape %v and %v", t.Dims, o.Dims)
	}
}

// resultInto returns dst if it may be written through, else a fresh tensor
// of t's shape.
func (t *Tensor) resultInto(elem Kind, dst *Tensor) *Tensor {
	if dst != nil && !dst.IsShared() {
		return dst
	}
	return NewTensor(elem, t.Dims...)
}

func (t *Tensor) ZipFInto(o *Tensor, f func(a, b float64) float64, dst *Tensor) *Tensor {
	t.sameShape(o)
	out := t.resultInto(KR64, dst)
	zipInto(out.F, t.F, o.F, f)
	return out
}

func (t *Tensor) ZipIInto(o *Tensor, f func(a, b int64) int64, dst *Tensor) *Tensor {
	t.sameShape(o)
	out := t.resultInto(KI64, dst)
	zipInto(out.I, t.I, o.I, f)
	return out
}

func (t *Tensor) ZipCInto(o *Tensor, f func(a, b complex128) complex128, dst *Tensor) *Tensor {
	t.sameShape(o)
	out := t.resultInto(KC64, dst)
	zipInto(out.C, t.C, o.C, f)
	return out
}

func (t *Tensor) MapFInto(f func(float64) float64, dst *Tensor) *Tensor {
	out := t.resultInto(KR64, dst)
	mapInto(out.F, t.F, f)
	return out
}

func (t *Tensor) MapIInto(f func(int64) int64, dst *Tensor) *Tensor {
	out := t.resultInto(KI64, dst)
	mapInto(out.I, t.I, f)
	return out
}

func (t *Tensor) MapCInto(f func(complex128) complex128, dst *Tensor) *Tensor {
	out := t.resultInto(KC64, dst)
	mapInto(out.C, t.C, f)
	return out
}

func zipInto[T any](out, a, b []T, f func(a, b T) T) {
	for i, x := range a {
		out[i] = f(x, b[i])
	}
}

func mapInto[T any](out, a []T, f func(T) T) {
	for i, x := range a {
		out[i] = f(x)
	}
}

// Dot products route through the shared BLAS (MKL stand-in; paper §6 Dot),
// whose matrix kernels split their rows over the cores; vector·vector stays
// serial because splitting the single accumulation would change
// floating-point rounding order (see DESIGN.md).

// DotVV is vector·vector. Always serial: one FP accumulator.
func DotVV(a, b *Tensor) float64 {
	if a.Len() != b.Len() {
		Throw(ExcType, "Dot: length mismatch")
	}
	return blas.DDot(a.F, b.F)
}

// DotMV is matrix·vector.
func DotMV(a, b *Tensor) *Tensor {
	m, n := a.Dims[0], a.Dims[1]
	if n != b.Len() {
		Throw(ExcType, "Dot: shape mismatch")
	}
	out := NewTensor(KR64, m)
	blas.DGemv(m, n, a.F, b.F, out.F)
	return out
}

// DotMM is matrix·matrix.
func DotMM(a, b *Tensor) *Tensor {
	m, k, n := a.Dims[0], a.Dims[1], b.Dims[1]
	if k != b.Dims[0] {
		Throw(ExcType, "Dot: shape mismatch")
	}
	out := NewTensor(KR64, m, n)
	blas.DGemm(m, k, n, a.F, b.F, out.F)
	return out
}
