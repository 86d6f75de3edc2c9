package runtime

import (
	"math/big"
	"strconv"

	"wolfc/internal/expr"
	"wolfc/internal/types"
)

// Boxing and unboxing between kernel expressions and runtime values (paper
// §4.5 "Expression Boxing and Unboxing"): the auxiliary wrapper around each
// compiled function unpacks arguments, checks their types, and packs the
// result back into an expression.

// KindOf maps a compiler type to the runtime register class.
func KindOf(t types.Type) Kind {
	switch x := t.(type) {
	case *types.Atomic:
		switch x.Name {
		case "Boolean":
			return KBool
		case "Real32", "Real64":
			return KR64
		case "ComplexReal64":
			return KC64
		case "Integer8", "Integer16", "Integer32", "Integer64",
			"UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32", "UnsignedInteger64":
			return KI64
		case "Void":
			return KBool // placeholder class; value unused
		default: // String, Expression
			return KObj
		}
	case *types.Compound, *types.Fn:
		return KObj
	}
	return KObj
}

// Unbox converts an expression into the runtime representation for type t.
// A conversion failure returns false; the wrapper then reports an argument
// type error (F1 integration).
func Unbox(e expr.Expr, t types.Type) (any, bool) {
	switch x := t.(type) {
	case *types.Atomic:
		switch x.Name {
		case "Integer64", "Integer32", "Integer16", "Integer8", "MachineInteger",
			"UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32", "UnsignedInteger64":
			i, ok := e.(*expr.Integer)
			if !ok || !i.IsMachine() {
				return nil, false
			}
			return i.Int64(), true
		case "Real64", "Real32":
			switch v := e.(type) {
			case *expr.Real:
				return v.V, true
			case *expr.Integer:
				if v.IsMachine() {
					return float64(v.Int64()), true
				}
			case *expr.Rational:
				f, _ := v.V.Float64()
				return f, true
			}
			return nil, false
		case "ComplexReal64":
			switch v := e.(type) {
			case *expr.Complex:
				return complex(v.Re, v.Im), true
			case *expr.Real:
				return complex(v.V, 0), true
			case *expr.Integer:
				if v.IsMachine() {
					return complex(float64(v.Int64()), 0), true
				}
			case *expr.Normal:
				// Unevaluated Complex[re, im] heads box fine too.
				if c, ok := expr.IsNormalN(v, expr.Sym("Complex"), 2); ok {
					re, ok1 := toF(c.Arg(1))
					im, ok2 := toF(c.Arg(2))
					if ok1 && ok2 {
						return complex(re, im), true
					}
				}
			}
			return nil, false
		case "Boolean":
			if b, isBool := expr.TruthValue(e); isBool {
				return b, true
			}
			return nil, false
		case "String":
			s, ok := e.(*expr.String)
			if !ok {
				return nil, false
			}
			return s.V, true
		case "Expression":
			return e, true
		}
	case *types.Compound:
		if x.Ctor == "Tensor" && len(x.Args) == 2 {
			rank, ok := x.Args[1].(*types.Literal)
			if !ok {
				return nil, false
			}
			return unboxTensor(e, x.Args[0], int(rank.Value))
		}
	}
	return nil, false
}

func unboxTensor(e expr.Expr, elem types.Type, rank int) (any, bool) {
	l, ok := expr.IsNormal(e, expr.SymList)
	if !ok {
		return nil, false
	}
	n := l.Len()
	if rank == 1 {
		switch KindOf(elem) {
		case KI64:
			t := NewTensor(KI64, n)
			for i := 1; i <= n; i++ {
				v, ok := l.Arg(i).(*expr.Integer)
				if !ok || !v.IsMachine() {
					return nil, false
				}
				t.I[i-1] = v.Int64()
			}
			t.MarkShared()
			return t, true
		case KR64:
			t := NewTensor(KR64, n)
			for i := 1; i <= n; i++ {
				f, ok := toF(l.Arg(i))
				if !ok {
					return nil, false
				}
				t.F[i-1] = f
			}
			t.MarkShared()
			return t, true
		case KC64:
			t := NewTensor(KC64, n)
			for i := 1; i <= n; i++ {
				switch v := l.Arg(i).(type) {
				case *expr.Complex:
					t.C[i-1] = complex(v.Re, v.Im)
				default:
					f, ok := toF(l.Arg(i))
					if !ok {
						return nil, false
					}
					t.C[i-1] = complex(f, 0)
				}
			}
			t.MarkShared()
			return t, true
		case KObj:
			t := NewTensor(KObj, n)
			for i := 1; i <= n; i++ {
				v, ok := Unbox(l.Arg(i), elem)
				if !ok {
					return nil, false
				}
				t.O[i-1] = v
			}
			t.MarkShared()
			return t, true
		}
		return nil, false
	}
	// Rank >= 2: one packed array, whose shape the first element at each
	// level fixes; a ragged list does not unbox.
	kind := KindOf(elem)
	if kind == KObj {
		return nil, false
	}
	dims := make([]int, 0, rank)
	for d, k := expr.Expr(l), 0; k < rank; k++ {
		row, ok := expr.IsNormal(d, expr.SymList)
		if !ok {
			return nil, false
		}
		dims = append(dims, row.Len())
		if row.Len() == 0 {
			dims = append(dims, make([]int, rank-k-1)...)
			break
		}
		d = row.Arg(1)
	}
	t := NewTensor(kind, dims...)
	at := 0
	var fill func(e expr.Expr, level int) bool
	fill = func(e expr.Expr, level int) bool {
		if level == rank {
			ok := true
			switch kind {
			case KI64:
				var v *expr.Integer
				v, ok = e.(*expr.Integer)
				ok = ok && v.IsMachine()
				if ok {
					t.I[at] = v.Int64()
				}
			case KR64:
				t.F[at], ok = toF(e)
			case KC64:
				if c, isC := e.(*expr.Complex); isC {
					t.C[at] = complex(c.Re, c.Im)
				} else {
					var f float64
					f, ok = toF(e)
					t.C[at] = complex(f, 0)
				}
			case KBool:
				t.B[at], ok = expr.TruthValue(e)
			}
			at++
			return ok
		}
		row, ok := expr.IsNormal(e, expr.SymList)
		if !ok || row.Len() != dims[level] {
			return false
		}
		for _, a := range row.Args() {
			if !fill(a, level+1) {
				return false
			}
		}
		return true
	}
	if !fill(l, 0) {
		return nil, false
	}
	t.MarkShared()
	return t, true
}

func toF(e expr.Expr) (float64, bool) {
	switch v := e.(type) {
	case *expr.Real:
		return v.V, true
	case *expr.Integer:
		if v.IsMachine() {
			return float64(v.Int64()), true
		}
		f := new(big.Float).SetInt(v.Big())
		out, _ := f.Float64()
		return out, true
	case *expr.Rational:
		f, _ := v.V.Float64()
		return f, true
	}
	return 0, false
}

// Box converts a runtime value of type t back into an expression.
func Box(v any, t types.Type) expr.Expr {
	switch x := t.(type) {
	case *types.Atomic:
		switch x.Name {
		case "Void":
			return expr.SymNull
		case "Boolean":
			return expr.Bool(v.(bool))
		case "Real64", "Real32":
			return expr.FromFloat(v.(float64))
		case "ComplexReal64":
			return boxComplex(v.(complex128))
		case "String":
			return expr.FromString(v.(string))
		case "Expression":
			return v.(expr.Expr)
		default: // integer widths
			return expr.FromInt64(v.(int64))
		}
	case *types.Compound:
		if x.Ctor == "Tensor" && len(x.Args) == 2 {
			t := v.(*Tensor)
			return boxTensor(t, x.Args[0])
		}
	case *types.Fn:
		return expr.NewS("CompiledCodeFunctionValue")
	}
	return expr.SymFailed
}

// boxComplex boxes a machine complex as the interpreter writes it: a zero
// imaginary part leaves the real.
func boxComplex(c complex128) expr.Expr {
	if imag(c) == 0 {
		return expr.FromFloat(real(c))
	}
	return expr.FromComplex(real(c), imag(c))
}

// boxTensor boxes a tensor of any rank. The element kind picks the
// element boxer once, outside the element loop.
func boxTensor(t *Tensor, elem types.Type) expr.Expr {
	switch t.Elem {
	case KI64:
		return boxElems(t, t.I, func(v int64) expr.Expr { return expr.FromInt64(v) })
	case KR64:
		return boxElems(t, t.F, func(v float64) expr.Expr { return expr.FromFloat(v) })
	case KC64:
		return boxElems(t, t.C, boxComplex)
	case KBool:
		return boxElems(t, t.B, expr.Bool)
	}
	return boxElems(t, t.O, func(v any) expr.Expr { return Box(v, elem) })
}

// boxElems boxes each element of data, t's storage, as nested lists of t's
// shape.
func boxElems[T any](t *Tensor, data []T, box func(T) expr.Expr) expr.Expr {
	at := 0
	var level func(dims []int) expr.Expr
	level = func(dims []int) expr.Expr {
		out := make([]expr.Expr, dims[0])
		for i := range out {
			if len(dims) == 1 {
				out[i] = box(data[at])
				at++
			} else {
				out[i] = level(dims[1:])
			}
		}
		return expr.List(out...)
	}
	return level(t.Dims)
}

// --- symbolic Expression operations (F8) ---
// Symbolic values flow through compiled code as expr.Expr in object
// registers; arithmetic combines them with threaded interpretation through
// the engine (paper §4.5: "Symbolic code still utilize the Wolfram Engine,
// but uses threaded interpretation to bypass the Wolfram interpreter").

// ExprBinary combines two symbolic values under the named head, folding
// numerics through the engine.
func ExprBinary(eng Engine, head string, a, b expr.Expr) expr.Expr {
	if eng == nil {
		Throw(ExcKernel, "symbolic %s requires the engine (disabled in standalone mode)", head)
	}
	out, err := eng.EvalExpr(expr.NewS(head, a, b))
	if err != nil {
		Throw(ExcKernel, "symbolic %s: %v", head, err)
	}
	return out
}

// KernelApply evaluates f[args...] in the interpreter (KernelFunction, F9).
func KernelApply(eng Engine, f expr.Expr, args []expr.Expr) expr.Expr {
	if eng == nil {
		Throw(ExcKernel, "KernelFunction escape to %s requires the engine (disabled in standalone mode)", escapeHeadName(f))
	}
	out, err := eng.EvalExpr(expr.New(f, args...))
	if err != nil {
		Throw(ExcKernel, "kernel escape to %s: %v", escapeHeadName(f), err)
	}
	if out == expr.SymAborted {
		Throw(ExcAbort, "aborted")
	}
	return out
}

// escapeHeadName names the head a kernel escape would have applied, for
// error messages: the symbol name when the head is a symbol, otherwise its
// InputForm. Standalone-mode failures name what could not be evaluated.
func escapeHeadName(f expr.Expr) string {
	if s, ok := f.(*expr.Symbol); ok {
		return s.Name
	}
	return expr.InputForm(f)
}

// SameQExpr is structural identity on symbolic values.
func SameQExpr(a, b expr.Expr) bool { return expr.SameQ(a, b) }

// --- string helpers ---

// StringByte returns the 1-based UTF-8 byte of s (the new compiler operates
// on the UTF8 bytes within the string — paper §6 FNV1a). Like Off1 the range
// test is one unsigned compare and the throw is out of line, so the function
// inlines into the evaluator that calls it.
func StringByte(s string, i int64) int64 {
	if uint64(i-1) >= uint64(len(s)) {
		throwStringByte(i, len(s))
	}
	return int64(s[i-1])
}

//go:noinline
func throwStringByte(i int64, n int) {
	Throw(ExcPartRange, "string byte index %d out of range for %d bytes", i, n)
}

// StringRuneLen counts characters.
func StringRuneLen(s string) int64 {
	n := int64(0)
	for range s {
		n++
	}
	return n
}

// StringTakeN takes the first (or last, when negative) n characters.
func StringTakeN(s string, n int64) string {
	r := []rune(s)
	if n >= 0 {
		if n > int64(len(r)) {
			Throw(ExcPartRange, "StringTake: %d exceeds length %d", n, len(r))
		}
		return string(r[:n])
	}
	if -n > int64(len(r)) {
		Throw(ExcPartRange, "StringTake: %d exceeds length %d", n, len(r))
	}
	return string(r[int64(len(r))+n:])
}

// ToCharCodes converts a string to a tensor of code points.
func ToCharCodes(s string) *Tensor {
	runes := []rune(s)
	t := NewTensor(KI64, len(runes))
	for i, r := range runes {
		t.I[i] = int64(r)
	}
	return t
}

// FromCharCodes builds a string from a tensor of code points.
func FromCharCodes(t *Tensor) string {
	out := make([]rune, t.Len())
	for i := range out {
		out[i] = rune(t.I[i])
	}
	return string(out)
}

// FormatInt renders an integer (ToString).
func FormatInt(v int64) string { return strconv.FormatInt(v, 10) }

// FormatReal renders a real (ToString).
func FormatReal(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
