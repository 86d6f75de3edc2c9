package vm

import (
	"fmt"
	"math"
	"time"

	"wolfc/internal/blas"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
	"wolfc/internal/pattern"
)

// wvmMetrics aggregates invocation metrics over every bytecode-compiled
// function: the baseline VM has no per-function identity worth a registry
// slot each, so the whole backend reports as one row.
var wvmMetrics = obs.RegisterFunc("(all WVM functions)", "wvm")

// ErrorKind classifies VM runtime errors; numeric errors trigger the soft
// interpreter fallback (F2), abort propagates the user interrupt (F3).
type ErrorKind int

const (
	ErrOverflow ErrorKind = iota
	ErrPartRange
	ErrTypeMismatch
	ErrAborted
	ErrUnsupported
)

// Error is a VM runtime error.
type Error struct {
	Kind ErrorKind
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

func vmErrf(kind ErrorKind, format string, args ...any) *Error {
	return &Error{Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// CompiledFunction is a bytecode-compiled function ready to run on the WVM.
type CompiledFunction struct {
	NumArgs   int
	ArgKinds  []Kind
	SlotKinds []Kind
	SlotSyms  []*expr.Symbol // original names, for interpreter escapes
	Consts    []Value
	Code      []Instr
	Escapes   []expr.Expr // expressions evaluated via OpCallInterp
	Source    expr.Expr   // the original Function, for recompile/fallback

	// CompilerVersion/EngineVersion mimic the version stamps the engine
	// checks before running (paper §2.2).
	CompilerVersion, EngineVersion int
}

// Call runs the compiled function on the VM. The kernel supplies the abort
// flag, the random source, and the evaluator for interpreter escapes.
func (cf *CompiledFunction) Call(k *kernel.Kernel, args ...Value) (Value, error) {
	if len(args) != cf.NumArgs {
		return Value{}, vmErrf(ErrTypeMismatch, "expected %d arguments, got %d", cf.NumArgs, len(args))
	}
	slots := make([]Value, len(cf.SlotKinds))
	for i, a := range args {
		// Coerce int arguments to real slots.
		if cf.ArgKinds[i] == KReal && a.Kind == KInt {
			a = RealValue(float64(a.I))
		}
		if a.Kind != cf.ArgKinds[i] && cf.ArgKinds[i] != KVoid {
			if !(a.Kind == KTensor && cf.ArgKinds[i] == KTensor) {
				return Value{}, vmErrf(ErrTypeMismatch, "argument %d: expected %v, got %v",
					i+1, cf.ArgKinds[i], a.Kind)
			}
		}
		slots[i] = a
	}
	m := &machine{cf: cf, k: k, slots: slots, stack: make([]Value, 0, 64)}
	if obs.Enabled() {
		t0 := time.Now()
		v, err := m.run()
		wvmMetrics.RecordInvoke(time.Since(t0))
		if vmErr, ok := err.(*Error); ok {
			if vmErr.Kind == ErrAborted {
				wvmMetrics.RecordAbort()
			} else {
				wvmMetrics.RecordFallback()
			}
		}
		return v, err
	}
	return m.run()
}

type machine struct {
	cf    *CompiledFunction
	k     *kernel.Kernel
	slots []Value
	stack []Value
}

func (m *machine) push(v Value) { m.stack = append(m.stack, v) }
func (m *machine) pop() Value {
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

func (m *machine) run() (Value, error) {
	code := m.cf.Code
	pc := 0
	for pc < len(code) {
		in := code[pc]
		pc++
		switch in.Op {
		case OpNop:
		case OpPushConst:
			m.push(m.cf.Consts[in.A])
		case OpLoad:
			v := m.slots[in.A]
			// Copy-on-read for tensors: the baseline has no alias analysis,
			// so any read of a tensor variable copies (paper §3 F5 "the
			// bytecode compiler performs copying on read"). Element access
			// uses OpPartV and does not pay this cost.
			if v.Kind == KTensor {
				v = TensorValue(v.T.Copy())
			}
			m.push(v)
		case OpStore:
			m.slots[in.A] = m.pop()
		case OpDup:
			m.push(m.stack[len(m.stack)-1])
		case OpPop:
			m.pop()
		case OpJmp:
			pc = int(in.A)
		case OpJmpIfFalse:
			v := m.pop()
			if v.Kind != KBool {
				return Value{}, vmErrf(ErrTypeMismatch, "condition is %v, not Boolean", v.Kind)
			}
			if !v.B {
				pc = int(in.A)
			}
		case OpJmpIfTrue:
			v := m.pop()
			if v.Kind != KBool {
				return Value{}, vmErrf(ErrTypeMismatch, "condition is %v, not Boolean", v.Kind)
			}
			if v.B {
				pc = int(in.A)
			}

		case OpAddI:
			b, a := m.pop(), m.pop()
			s := a.I + b.I
			if (a.I > 0 && b.I > 0 && s < 0) || (a.I < 0 && b.I < 0 && s >= 0) {
				return Value{}, vmErrf(ErrOverflow, "IntegerOverflow in Plus[%d, %d]", a.I, b.I)
			}
			m.push(IntValue(s))
		case OpAddR:
			b, a := m.pop(), m.pop()
			m.push(RealValue(a.R + b.R))
		case OpSubI:
			b, a := m.pop(), m.pop()
			d := a.I - b.I
			if (a.I >= 0 && b.I < 0 && d < 0) || (a.I < 0 && b.I > 0 && d >= 0) {
				return Value{}, vmErrf(ErrOverflow, "IntegerOverflow in Subtract[%d, %d]", a.I, b.I)
			}
			m.push(IntValue(d))
		case OpSubR:
			b, a := m.pop(), m.pop()
			m.push(RealValue(a.R - b.R))
		case OpMulI:
			b, a := m.pop(), m.pop()
			if a.I != 0 && b.I != 0 {
				p := a.I * b.I
				if p/b.I != a.I || (a.I == -1 && b.I == math.MinInt64) || (b.I == -1 && a.I == math.MinInt64) {
					return Value{}, vmErrf(ErrOverflow, "IntegerOverflow in Times[%d, %d]", a.I, b.I)
				}
				m.push(IntValue(p))
			} else {
				m.push(IntValue(0))
			}
		case OpMulR:
			b, a := m.pop(), m.pop()
			m.push(RealValue(a.R * b.R))
		case OpDivR:
			b, a := m.pop(), m.pop()
			m.push(RealValue(a.R / b.R))
		case OpModI:
			b, a := m.pop(), m.pop()
			if b.I == 0 {
				return Value{}, vmErrf(ErrOverflow, "Mod by zero")
			}
			r := a.I % b.I
			if r != 0 && (r < 0) != (b.I < 0) {
				r += b.I
			}
			m.push(IntValue(r))
		case OpQuotI:
			b, a := m.pop(), m.pop()
			if b.I == 0 {
				return Value{}, vmErrf(ErrOverflow, "Quotient by zero")
			}
			if a.I == math.MinInt64 && b.I == -1 {
				return Value{}, vmErrf(ErrOverflow, "IntegerOverflow in Quotient[%d, %d]", a.I, b.I)
			}
			q := a.I / b.I
			if (a.I%b.I != 0) && ((a.I < 0) != (b.I < 0)) {
				q--
			}
			m.push(IntValue(q))
		case OpNegI:
			a := m.pop()
			if a.I == math.MinInt64 {
				return Value{}, vmErrf(ErrOverflow, "IntegerOverflow in Minus")
			}
			m.push(IntValue(-a.I))
		case OpNegR:
			a := m.pop()
			m.push(RealValue(-a.R))
		case OpPowI:
			b, a := m.pop(), m.pop()
			if b.I < 0 {
				return Value{}, vmErrf(ErrTypeMismatch, "negative integer power in PowI")
			}
			result := int64(1)
			base := a.I
			for i := int64(0); i < b.I; i++ {
				if base != 0 && result != 0 {
					p := result * base
					if p/base != result {
						return Value{}, vmErrf(ErrOverflow, "IntegerOverflow in Power[%d, %d]", a.I, b.I)
					}
					result = p
				} else {
					result = 0
				}
			}
			m.push(IntValue(result))
		case OpPowR:
			b, a := m.pop(), m.pop()
			m.push(RealValue(math.Pow(a.R, b.R)))
		case OpBAnd:
			b, a := m.pop(), m.pop()
			m.push(IntValue(a.I & b.I))
		case OpBOr:
			b, a := m.pop(), m.pop()
			m.push(IntValue(a.I | b.I))
		case OpBXor:
			b, a := m.pop(), m.pop()
			m.push(IntValue(a.I ^ b.I))
		case OpShl:
			b, a := m.pop(), m.pop()
			r := a.I << uint64(b.I)
			if b.I < 0 || r>>uint64(b.I) != a.I {
				return Value{}, vmErrf(ErrOverflow, "IntegerOverflow in BitShiftLeft[%d, %d]", a.I, b.I)
			}
			m.push(IntValue(r))
		case OpShr:
			b, a := m.pop(), m.pop()
			if b.I < 0 {
				return Value{}, vmErrf(ErrOverflow, "negative shift count in BitShiftRight[%d, %d]", a.I, b.I)
			}
			m.push(IntValue(a.I >> uint64(b.I)))
		case OpToReal:
			a := m.pop()
			switch a.Kind {
			case KInt:
				m.push(RealValue(float64(a.I)))
			case KReal:
				m.push(a)
			case KTensor:
				if a.T.Elem == KInt {
					t := NewRealTensor(a.T.Dims...)
					for i, v := range a.T.I {
						t.R[i] = float64(v)
					}
					m.push(TensorValue(t))
				} else {
					m.push(a)
				}
			default:
				return Value{}, vmErrf(ErrTypeMismatch, "cannot coerce %v to Real", a.Kind)
			}

		case OpLtI:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.I < b.I))
		case OpLtR:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.R < b.R))
		case OpLeI:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.I <= b.I))
		case OpLeR:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.R <= b.R))
		case OpGtI:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.I > b.I))
		case OpGtR:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.R > b.R))
		case OpGeI:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.I >= b.I))
		case OpGeR:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.R >= b.R))
		case OpEqI:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.I == b.I))
		case OpEqR:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.R == b.R))
		case OpNeI:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.I != b.I))
		case OpNeR:
			b, a := m.pop(), m.pop()
			m.push(BoolValue(a.R != b.R))
		case OpNot:
			a := m.pop()
			if a.Kind != KBool {
				return Value{}, vmErrf(ErrTypeMismatch, "Not of %v", a.Kind)
			}
			m.push(BoolValue(!a.B))

		case OpMath1:
			a := m.pop()
			r, ok := a.AsReal()
			if !ok {
				return Value{}, vmErrf(ErrTypeMismatch, "%s of %v", mathNames[in.A], a.Kind)
			}
			out, isInt := math1(int(in.A), r)
			if isInt {
				// Floor, Ceiling, Round: NaN and the infinities fail the
				// range test too, as in runtime.RealToI64.
				if !(out >= -(1<<63) && out < 1<<63) {
					return Value{}, vmErrf(ErrOverflow, "IntegerOverflow in %s[%v]", mathNames[in.A], r)
				}
				m.push(IntValue(int64(out)))
			} else {
				m.push(RealValue(out))
			}
		case OpMath2:
			b, a := m.pop(), m.pop()
			ra, ok1 := a.AsReal()
			rb, ok2 := b.AsReal()
			if !ok1 || !ok2 {
				return Value{}, vmErrf(ErrTypeMismatch, "%s of %v, %v", mathNames[in.A], a.Kind, b.Kind)
			}
			// Min/Max preserve integer kind.
			if (in.A == MfMin || in.A == MfMax) && a.Kind == KInt && b.Kind == KInt {
				if (in.A == MfMin) == (a.I < b.I) {
					m.push(a)
				} else {
					m.push(b)
				}
				break
			}
			m.push(RealValue(math2(int(in.A), ra, rb)))

		case OpLength:
			a := m.pop()
			if a.Kind != KTensor {
				return Value{}, vmErrf(ErrTypeMismatch, "Length of %v", a.Kind)
			}
			m.push(IntValue(int64(a.T.Len())))
		case OpLengthV:
			v := m.slots[in.A]
			if v.Kind != KTensor {
				return Value{}, vmErrf(ErrTypeMismatch, "Length of %v", v.Kind)
			}
			m.push(IntValue(int64(v.T.Len())))
		case OpPart:
			nIdx := int(in.A)
			idxs := make([]int64, nIdx)
			for i := nIdx - 1; i >= 0; i-- {
				v := m.pop()
				if v.Kind != KInt {
					return Value{}, vmErrf(ErrTypeMismatch, "Part index is %v", v.Kind)
				}
				idxs[i] = v.I
			}
			t := m.pop()
			if t.Kind != KTensor {
				return Value{}, vmErrf(ErrTypeMismatch, "Part of %v", t.Kind)
			}
			out, err := t.T.Part(idxs...)
			if err != nil {
				return Value{}, vmErrf(ErrPartRange, "Part: %v", err)
			}
			m.push(out)
		case OpPartV:
			nIdx := int(in.B)
			idxs := make([]int64, nIdx)
			for i := nIdx - 1; i >= 0; i-- {
				v := m.pop()
				if v.Kind != KInt {
					return Value{}, vmErrf(ErrTypeMismatch, "Part index is %v", v.Kind)
				}
				idxs[i] = v.I
			}
			t := m.slots[in.A]
			if t.Kind != KTensor {
				return Value{}, vmErrf(ErrTypeMismatch, "Part of %v", t.Kind)
			}
			out, err := t.T.Part(idxs...)
			if err != nil {
				return Value{}, vmErrf(ErrPartRange, "Part: %v", err)
			}
			m.push(out)
		case OpSetPart:
			nIdx := int(in.B)
			val := m.pop()
			idxs := make([]int64, nIdx)
			for i := nIdx - 1; i >= 0; i-- {
				v := m.pop()
				if v.Kind != KInt {
					return Value{}, vmErrf(ErrTypeMismatch, "Part index is %v", v.Kind)
				}
				idxs[i] = v.I
			}
			slot := int(in.A)
			cur := m.slots[slot]
			if cur.Kind != KTensor {
				return Value{}, vmErrf(ErrTypeMismatch, "Part assignment to %v", cur.Kind)
			}
			// Under copy-on-read, slot tensors are uniquely owned, so the
			// mutation is safe in place.
			if err := cur.T.SetPart(val, idxs...); err != nil {
				return Value{}, vmErrf(ErrPartRange, "Part assignment: %v", err)
			}
			m.push(val)

		case OpRuntime:
			if err := m.runtime(int(in.A), int(in.B)); err != nil {
				return Value{}, err
			}

		case OpCallInterp:
			out, err := m.callInterp(int(in.A))
			if err != nil {
				return Value{}, err
			}
			m.push(out)

		case OpCoerce:
			v := m.pop()
			want := Kind(in.A)
			switch {
			case v.Kind == want:
				m.push(v)
			case v.Kind == KInt && want == KReal:
				m.push(RealValue(float64(v.I)))
			default:
				return Value{}, vmErrf(ErrTypeMismatch,
					"escaped expression produced %v where %v was expected", v.Kind, want)
			}

		case OpAbortCheck:
			if m.k != nil && m.k.Aborted() {
				return Value{}, vmErrf(ErrAborted, "aborted")
			}

		case OpRet:
			if len(m.stack) == 0 {
				return Value{Kind: KVoid}, nil
			}
			return m.pop(), nil
		default:
			return Value{}, vmErrf(ErrUnsupported, "bad opcode %d", in.Op)
		}
	}
	return Value{Kind: KVoid}, nil
}

func math1(id int, x float64) (out float64, isInt bool) {
	switch id {
	case MfSin:
		return math.Sin(x), false
	case MfCos:
		return math.Cos(x), false
	case MfTan:
		return math.Tan(x), false
	case MfExp:
		return math.Exp(x), false
	case MfLog:
		return math.Log(x), false
	case MfSqrt:
		return math.Sqrt(x), false
	case MfAbs:
		return math.Abs(x), false
	case MfFloor:
		return math.Floor(x), true
	case MfCeiling:
		return math.Ceil(x), true
	case MfRound:
		return math.RoundToEven(x), true
	case MfArcTan:
		return math.Atan(x), false
	case MfArcSin:
		return math.Asin(x), false
	case MfArcCos:
		return math.Acos(x), false
	case MfSign:
		switch {
		case x > 0:
			return 1, true
		case x < 0:
			return -1, true
		}
		return 0, true
	}
	return math.NaN(), false
}

func math2(id int, a, b float64) float64 {
	switch id {
	case MfArcTan2:
		return math.Atan2(b, a)
	case MfMin:
		return math.Min(a, b)
	case MfMax:
		return math.Max(a, b)
	case MfLog2:
		return math.Log(b) / math.Log(a)
	case MfPow:
		return math.Pow(a, b)
	}
	return math.NaN()
}

// runtime dispatches an OpRuntime call.
func (m *machine) runtime(id, argc int) error {
	args := make([]Value, argc)
	for i := argc - 1; i >= 0; i-- {
		args[i] = m.pop()
	}
	switch id {
	case RtDot:
		out, err := tensorDot(args[0], args[1])
		if err != nil {
			return err
		}
		m.push(out)
	case RtTotal:
		if args[0].Kind != KTensor {
			return vmErrf(ErrTypeMismatch, "Total of %v", args[0].Kind)
		}
		t := args[0].T
		if len(t.Dims) != 1 {
			return vmErrf(ErrTypeMismatch, "Total of rank-%d tensor unsupported in WVM", len(t.Dims))
		}
		if t.Elem == KInt {
			m.push(IntValue(blas.ISum(t.I)))
		} else {
			m.push(RealValue(blas.DSum(t.R)))
		}
	case RtRandomReal:
		lo, hi := 0.0, 1.0
		if argc == 2 {
			lo, _ = args[0].AsReal()
			hi, _ = args[1].AsReal()
		}
		// Routed through the kernel for reproducibility with the
		// interpreter's random stream.
		out, err := m.k.Run(expr.NewS("RandomReal",
			expr.List(expr.FromFloat(lo), expr.FromFloat(hi))))
		if err != nil {
			return vmErrf(ErrUnsupported, "RandomReal: %v", err)
		}
		v, _ := FromExpr(out)
		m.push(v)
	case RtRandomInt:
		out, err := m.k.Run(expr.NewS("RandomInteger",
			expr.List(ToExpr(args[0]), ToExpr(args[1]))))
		if err != nil {
			return vmErrf(ErrUnsupported, "RandomInteger: %v", err)
		}
		v, _ := FromExpr(out)
		m.push(v)
	case RtTableReal:
		n := args[0].I
		m.push(TensorValue(NewRealTensor(int(n))))
	case RtTableInt:
		n := args[0].I
		m.push(TensorValue(NewIntTensor(int(n))))
	case RtTake:
		if args[0].Kind != KTensor || args[1].Kind != KInt {
			return vmErrf(ErrTypeMismatch, "Take of %v, %v", args[0].Kind, args[1].Kind)
		}
		t := args[0].T
		n := int(args[1].I)
		if n < 0 || n > t.Len() {
			return vmErrf(ErrPartRange, "Take %d from length %d", n, t.Len())
		}
		out := &Tensor{Elem: t.Elem, Dims: []int{n}}
		switch t.Elem {
		case KInt:
			out.I = append([]int64(nil), t.I[:n]...)
		case KReal:
			out.R = append([]float64(nil), t.R[:n]...)
		case KComplex:
			out.C = append([]complex128(nil), t.C[:n]...)
		default:
			return vmErrf(ErrUnsupported, "Take of %v tensor", t.Elem)
		}
		m.push(TensorValue(out))
	case RtReverse:
		if args[0].Kind != KTensor || len(args[0].T.Dims) != 1 {
			return vmErrf(ErrTypeMismatch, "Reverse of %v", args[0].Kind)
		}
		t := args[0].T
		n := t.Len()
		out := &Tensor{Elem: t.Elem, Dims: []int{n}}
		switch t.Elem {
		case KInt:
			out.I = make([]int64, n)
			for i := 0; i < n; i++ {
				out.I[i] = t.I[n-1-i]
			}
		case KReal:
			out.R = make([]float64, n)
			for i := 0; i < n; i++ {
				out.R[i] = t.R[n-1-i]
			}
		case KComplex:
			out.C = make([]complex128, n)
			for i := 0; i < n; i++ {
				out.C[i] = t.C[n-1-i]
			}
		default:
			return vmErrf(ErrUnsupported, "Reverse of %v tensor", t.Elem)
		}
		m.push(TensorValue(out))
	case RtTranspose:
		if args[0].Kind != KTensor || len(args[0].T.Dims) != 2 {
			return vmErrf(ErrTypeMismatch, "Transpose needs a rank-2 tensor")
		}
		t := args[0].T
		r, c := t.Dims[0], t.Dims[1]
		out := &Tensor{Elem: t.Elem, Dims: []int{c, r}}
		switch t.Elem {
		case KInt:
			out.I = make([]int64, r*c)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					out.I[j*r+i] = t.I[i*c+j]
				}
			}
		case KReal:
			out.R = make([]float64, r*c)
			for i := 0; i < r; i++ {
				for j := 0; j < c; j++ {
					out.R[j*r+i] = t.R[i*c+j]
				}
			}
		default:
			return vmErrf(ErrUnsupported, "Transpose of %v tensor", t.Elem)
		}
		m.push(TensorValue(out))
	case RtFlatten:
		if args[0].Kind != KTensor {
			return vmErrf(ErrTypeMismatch, "Flatten of %v", args[0].Kind)
		}
		t := args[0].T
		// Fresh storage, not a view: the WVM's mutation protocol assumes
		// distinct tensors never share backing arrays.
		out := &Tensor{
			Elem: t.Elem, Dims: []int{t.FlatLen()},
			I: append([]int64(nil), t.I...),
			R: append([]float64(nil), t.R...),
			C: append([]complex128(nil), t.C...),
		}
		m.push(TensorValue(out))
	default:
		return vmErrf(ErrUnsupported, "bad runtime call %d", id)
	}
	return nil
}

// tensorDot implements Dot through the shared BLAS kernels (the MKL
// stand-in), like both compilers in the paper.
func tensorDot(a, b Value) (Value, error) {
	if a.Kind != KTensor || b.Kind != KTensor {
		return Value{}, vmErrf(ErrTypeMismatch, "Dot of %v, %v", a.Kind, b.Kind)
	}
	ta, tb := a.T.toReal(), b.T.toReal()
	switch {
	case len(ta.Dims) == 1 && len(tb.Dims) == 1:
		if ta.Dims[0] != tb.Dims[0] {
			return Value{}, vmErrf(ErrTypeMismatch, "Dot length mismatch")
		}
		return RealValue(blas.DDot(ta.R, tb.R)), nil
	case len(ta.Dims) == 2 && len(tb.Dims) == 1:
		m, n := ta.Dims[0], ta.Dims[1]
		if n != tb.Dims[0] {
			return Value{}, vmErrf(ErrTypeMismatch, "Dot shape mismatch")
		}
		out := NewRealTensor(m)
		blas.DGemv(m, n, ta.R, tb.R, out.R)
		return TensorValue(out), nil
	case len(ta.Dims) == 2 && len(tb.Dims) == 2:
		m, k0, n := ta.Dims[0], ta.Dims[1], tb.Dims[1]
		if k0 != tb.Dims[0] {
			return Value{}, vmErrf(ErrTypeMismatch, "Dot shape mismatch")
		}
		out := NewRealTensor(m, n)
		blas.DGemm(m, k0, n, ta.R, tb.R, out.R)
		return TensorValue(out), nil
	}
	return Value{}, vmErrf(ErrUnsupported, "Dot of ranks %d, %d", len(a.T.Dims), len(b.T.Dims))
}

// toReal returns a real view/copy of the tensor.
func (t *Tensor) toReal() *Tensor {
	if t.Elem == KReal {
		return t
	}
	out := NewRealTensor(t.Dims...)
	for i, v := range t.I {
		out.R[i] = float64(v)
	}
	return out
}

// callInterp evaluates an escaped expression in the interpreter with the
// current variable values substituted in (paper §2.2).
func (m *machine) callInterp(idx int) (Value, error) {
	if m.k == nil {
		return Value{}, vmErrf(ErrUnsupported, "no kernel attached for interpreter escape")
	}
	b := pattern.Bindings{}
	for i, sym := range m.cf.SlotSyms {
		if sym != nil && m.slots[i].Kind != KVoid {
			b[sym] = ToExpr(m.slots[i])
		}
	}
	bound := pattern.Substitute(m.cf.Escapes[idx], b)
	out, err := m.k.Run(bound)
	if err != nil {
		return Value{}, vmErrf(ErrUnsupported, "interpreter escape: %v", err)
	}
	if out == expr.SymAborted {
		return Value{}, vmErrf(ErrAborted, "aborted")
	}
	v, convErr := FromExpr(out)
	if convErr != nil {
		return Value{}, vmErrf(ErrUnsupported, "interpreter escape result: %v", convErr)
	}
	return v, nil
}
