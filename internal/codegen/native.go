package codegen

import (
	"fmt"
	"strings"

	"wolfc/internal/expr"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// genNative compiles a primitive call by its resolved native id (paper §4.5:
// resolved calls reference Native`PrimitiveFunction[...]): the store builder
// for a Part store, the evaluator builders for a native that has one,
// selectNative for the rest.
func (g *gen) genNative(in *wir.Instr) (step, error) {
	native := in.NativeName()
	// Special structural callees resolved by inference without an overload.
	switch in.Callee {
	case "Native`List":
		return g.genListBuild(in)
	case "Native`KernelApply":
		return g.genKernelApply(in)
	}
	if native == "" {
		return nil, fmt.Errorf("codegen %s: unresolved call %s (function resolution incomplete)", g.fn.Name, in.Callee)
	}

	if noCode(in) {
		return nil, nil
	}
	// Three routes and no exception. A Part store has one builder. Whatever
	// has an evaluator (fusibleProducer: the scalar natives, a Part read of a
	// scalar element, tensor_length) is a tree of evaluators, of one node when
	// nothing was fused into it. selectNative has the rest, and reads every
	// operand from its register: consumerAccepts folds operands only into the
	// first two.
	switch {
	case isSetPart(native):
		return g.genSetPart(in, native)
	case fusibleProducer(in):
		dst, err := g.regOf(in)
		if err != nil {
			return nil, err
		}
		return g.assignTo(dst, in)
	}
	// selectNative does not keep regs, so the usual four operands or fewer
	// stay on the stack.
	var buf [4]reg
	regs := buf[:0]
	for _, a := range in.Args {
		if x, ok := a.(*wir.Instr); ok && g.fused[x] {
			regs = append(regs, reg{}) // a list zipListStep reads in place
			continue
		}
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		regs = append(regs, r)
	}
	var dst reg
	if in.Ty != types.TVoid {
		var err error
		dst, err = g.regOf(in)
		if err != nil {
			return nil, err
		}
	}
	st := g.selectNative(native, in, regs, dst)
	if st == nil {
		return nil, fmt.Errorf("codegen %s: no implementation for native %q at %s", g.fn.Name, native, in.Ty)
	}
	return st, nil
}

// noCode reports whether in compiles to nothing: a reference count, which
// only the C backend lowers (the host collector frees every value here). The
// pipeline inserts none; one the user wrote as Native`MemoryAcquire lands
// here.
func noCode(in *wir.Instr) bool {
	native := in.NativeName()
	return native == "memory_acquire" || native == "memory_release"
}

// argKind returns the register class of argument i.
func argKind(regs []reg, i int) runtime.Kind { return regs[i].kind }

func tensorArg(fr *frame, idx int) *runtime.Tensor {
	t, ok := fr.o[idx].(*runtime.Tensor)
	if !ok {
		runtime.Throw(runtime.ExcType, "expected a tensor value")
	}
	return t
}

// newList and newMatrix allocate zeroed storage for list_new/list_fill and
// matrix_new/matrix_fill.
func newList(elem runtime.Kind, n int64) *runtime.Tensor {
	return runtime.NewTensor(elem, lead(n))
}

// lead is a length operand as a dimension: negative ones throw.
func lead(n int64) int {
	if n < 0 {
		runtime.Throw(runtime.ExcPartRange, "negative list length %d", n)
	}
	return int(n)
}

func newMatrix(elem runtime.Kind, r, c int64) *runtime.Tensor {
	if r < 0 || c < 0 {
		runtime.Throw(runtime.ExcPartRange, "negative matrix dimension %dx%d", r, c)
	}
	return runtime.NewTensor(elem, int(r), int(c))
}

// selectNative is the instruction selector for the natives with no
// evaluator: tensors, strings, random numbers, symbolic operations, the
// object-kinded compares and pattern_miss — one small Go closure per typed
// primitive, indexing the frame register files directly.
func (g *gen) selectNative(native string, in *wir.Instr, regs []reg, dst reg) step {
	d := dst.idx
	a0 := func() int { return regs[0].idx }
	a1 := func() int { return regs[1].idx }
	a2 := func() int { return regs[2].idx }

	// Elementwise tensor arithmetic (Listable threading), plain or writing
	// over an operand (native_intoK, see passes.InsertCopies).
	if base, into := passes.CutInto(native); passes.ElementwiseOperands(base) != nil {
		return g.tensorArith(base, into, in, regs, dst)
	}
	switch native {
	// --- pattern dispatch ---
	case "pattern_miss":
		// A decision-tree leaf no DownValue rule covers: unwind to the tier
		// dispatcher, which hands the call to the interpreter rules (F2
		// guard miss). The operand is a dummy and the destination register
		// is never written.
		return func(fr *frame) { runtime.Throw(runtime.ExcNoMatch, "no matching DownValue rule") }
	// --- object-kinded min/max, compares and SameQ (the numeric kinds are
	// evaluators in fusion.go) ---
	case "min", "max":
		if argKind(regs, 0) == runtime.KObj { // strings
			isMin := native == "min"
			a, b := a0(), a1()
			return func(fr *frame) {
				x, y := fr.o[a].(string), fr.o[b].(string)
				if (x < y) == isMin {
					fr.o[d] = x
				} else {
					fr.o[d] = y
				}
			}
		}
	case "cmp_less", "cmp_lessequal", "cmp_greater", "cmp_greaterequal", "cmp_equal", "cmp_unequal":
		return g.cmpStep(native, regs, d)
	case "sameq_expr":
		a, b := a0(), a1()
		return func(fr *frame) {
			fr.b[d] = runtime.SameQExpr(fr.o[a].(expr.Expr), fr.o[b].(expr.Expr))
		}

	// --- tensors ---
	case "part_1", "part_unsafe_1", "part_row":
		// Of Part, only the read of an object element (a string, an
		// expression) or of a row of a packed array has no evaluator. The
		// object read inlines the positive in-range case as partEvalI does.
		a, i := a0(), a1()
		if native == "part_row" || packedRows(in.Args[0].Type(), in.Ty) {
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).Row(fr.i[i]) }
		}
		if dst.kind != runtime.KObj {
			return nil
		}
		if native == "part_unsafe_1" {
			return func(fr *frame) { fr.o[d] = tensorArg(fr, a).GetOU(fr.i[i]) }
		}
		return func(fr *frame) {
			t := tensorArg(fr, a)
			if k, ok := runtime.Off1(fr.i[i], len(t.O)); ok {
				fr.o[d] = t.O[k]
				return
			}
			fr.o[d] = t.GetO(fr.i[i])
		}
	case "part_2", "part_unsafe_2":
		// The scalar reads are evaluators: this is a sub-array of a packed
		// array of rank 3 or more.
		if !packedRows(in.Args[0].Type(), in.Ty) {
			return nil
		}
		a, i, j := a0(), a1(), a2()
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).Row2(fr.i[i], fr.i[j]) }
	case "list_new":
		elem, a := tensorElemKind(in.Ty), a0()
		if rows := tensorRank(in.Ty) - 1; rows > 0 && elem != runtime.KObj {
			return func(fr *frame) { fr.o[d] = runtime.NewRows(elem, rows, lead(fr.i[a])) }
		}
		return func(fr *frame) { fr.o[d] = newList(elem, fr.i[a]) }
	case "matrix_new":
		elem, a, b := tensorElemKind(in.Ty), a0(), a1()
		if rows := tensorRank(in.Ty) - 2; rows > 0 && elem != runtime.KObj {
			return func(fr *frame) { fr.o[d] = runtime.NewRows(elem, rows, lead(fr.i[a]), lead(fr.i[b])) }
		}
		return func(fr *frame) { fr.o[d] = newMatrix(elem, fr.i[a], fr.i[b]) }
	case "list_fill":
		a, v := a0(), a1()
		if packedRows(in.Ty, in.Args[1].Type()) {
			return func(fr *frame) { fr.o[d] = runtime.Tile(tensorArg(fr, v), lead(fr.i[a])) }
		}
		switch elem := tensorElemKind(in.Ty); elem {
		case runtime.KI64:
			return func(fr *frame) { fr.o[d] = newList(elem, fr.i[a]).FillI(fr.i[v]) }
		case runtime.KR64:
			return func(fr *frame) { fr.o[d] = newList(elem, fr.i[a]).FillF(fr.f[v]) }
		case runtime.KC64:
			return func(fr *frame) { fr.o[d] = newList(elem, fr.i[a]).FillC(fr.c[v]) }
		case runtime.KBool:
			return func(fr *frame) { fr.o[d] = newList(elem, fr.i[a]).FillB(fr.b[v]) }
		default:
			return func(fr *frame) { fr.o[d] = newList(elem, fr.i[a]).FillO(fr.o[v]) }
		}
	case "matrix_fill":
		a, b, v := a0(), a1(), a2()
		if packedRows(in.Ty, in.Args[2].Type()) {
			return func(fr *frame) { fr.o[d] = runtime.Tile(tensorArg(fr, v), lead(fr.i[a]), lead(fr.i[b])) }
		}
		switch elem := tensorElemKind(in.Ty); elem {
		case runtime.KI64:
			return func(fr *frame) { fr.o[d] = newMatrix(elem, fr.i[a], fr.i[b]).FillI(fr.i[v]) }
		case runtime.KR64:
			return func(fr *frame) { fr.o[d] = newMatrix(elem, fr.i[a], fr.i[b]).FillF(fr.f[v]) }
		case runtime.KC64:
			return func(fr *frame) { fr.o[d] = newMatrix(elem, fr.i[a], fr.i[b]).FillC(fr.c[v]) }
		case runtime.KBool:
			return func(fr *frame) { fr.o[d] = newMatrix(elem, fr.i[a], fr.i[b]).FillB(fr.b[v]) }
		default:
			return func(fr *frame) { fr.o[d] = newMatrix(elem, fr.i[a], fr.i[b]).FillO(fr.o[v]) }
		}
	case "copy_tensor":
		a := a0()
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).Copy() }
	case "list_take":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = tensorArg(fr, a).Take(fr.i[b]) }

	// --- Dot via BLAS ---
	case "dot_vv":
		a, b := a0(), a1()
		return func(fr *frame) { fr.f[d] = runtime.DotVV(tensorArg(fr, a), tensorArg(fr, b)) }
	case "dot_mv":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = runtime.DotMV(tensorArg(fr, a), tensorArg(fr, b)) }
	case "dot_mm":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = runtime.DotMM(tensorArg(fr, a), tensorArg(fr, b)) }

	// --- image/statistics kernels ---
	case "gaussian_blur":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.GaussianBlur3x3(tensorArg(fr, a)) }
	case "histogram_bins":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = runtime.HistogramBins(int(fr.i[b]), tensorArg(fr, a)) }

	// --- random numbers (engine-seeded) ---
	case "random_real01":
		return func(fr *frame) { fr.f[d] = runtime.NeedEngine(fr.rt.Engine, "RandomReal").RandReal() }
	case "random_real_range":
		a, b := a0(), a1()
		return func(fr *frame) {
			lo, hi := fr.f[a], fr.f[b]
			fr.f[d] = lo + runtime.NeedEngine(fr.rt.Engine, "RandomReal").RandReal()*(hi-lo)
		}
	case "random_int_range":
		a, b := a0(), a1()
		return func(fr *frame) { fr.i[d] = runtime.NeedEngine(fr.rt.Engine, "RandomInteger").RandInt(fr.i[a], fr.i[b]) }

	// --- strings ---
	case "string_join":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = fr.o[a].(string) + fr.o[b].(string) }
	case "string_length":
		a := a0()
		return func(fr *frame) { fr.i[d] = runtime.StringRuneLen(fr.o[a].(string)) }
	case "string_byte_length":
		a := a0()
		return func(fr *frame) { fr.i[d] = int64(len(fr.o[a].(string))) }
	case "to_char_code":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.ToCharCodes(fr.o[a].(string)) }
	case "from_char_code":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.FromCharCodes(tensorArg(fr, a)) }
	case "string_take":
		a, b := a0(), a1()
		return func(fr *frame) { fr.o[d] = runtime.StringTakeN(fr.o[a].(string), fr.i[b]) }
	case "int_to_string":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.FormatInt(fr.i[a]) }
	case "real_to_string":
		a := a0()
		return func(fr *frame) { fr.o[d] = runtime.FormatReal(fr.f[a]) }

	// --- symbolic operations (F8) ---
	case "expr_binary_plus", "expr_binary_times", "expr_binary_power":
		head := map[string]string{
			"expr_binary_plus":  "Plus",
			"expr_binary_times": "Times",
			"expr_binary_power": "Power",
		}[native]
		a, b := a0(), a1()
		return func(fr *frame) {
			fr.o[d] = runtime.ExprBinary(fr.rt.Engine, head,
				fr.o[a].(expr.Expr), fr.o[b].(expr.Expr))
		}
	case "kernel_call":
		a := a0()
		return func(fr *frame) {
			fr.o[d] = runtime.KernelApply(fr.rt.Engine, fr.o[a].(expr.Expr), nil)
		}
	case "box_number":
		switch argKind(regs, 0) {
		case runtime.KI64:
			a := a0()
			return func(fr *frame) { fr.o[d] = expr.FromInt64(fr.i[a]) }
		case runtime.KR64:
			a := a0()
			return func(fr *frame) { fr.o[d] = expr.FromFloat(fr.f[a]) }
		case runtime.KC64:
			a := a0()
			return func(fr *frame) { fr.o[d] = expr.FromComplex(real(fr.c[a]), imag(fr.c[a])) }
		}

	}
	_ = a2
	return nil
}

// cmpStep compiles the compares with no evaluator: those of strings.
func (g *gen) cmpStep(native string, regs []reg, d int) step {
	op := strings.TrimPrefix(native, "cmp_")
	a, b := regs[0].idx, regs[1].idx
	switch argKind(regs, 0) {
	case runtime.KObj: // strings
		cmp := func(fr *frame) int {
			x, y := fr.o[a].(string), fr.o[b].(string)
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
		switch op {
		case "less":
			return func(fr *frame) { fr.b[d] = cmp(fr) < 0 }
		case "lessequal":
			return func(fr *frame) { fr.b[d] = cmp(fr) <= 0 }
		case "greater":
			return func(fr *frame) { fr.b[d] = cmp(fr) > 0 }
		case "greaterequal":
			return func(fr *frame) { fr.b[d] = cmp(fr) >= 0 }
		case "equal":
			return func(fr *frame) { fr.b[d] = cmp(fr) == 0 }
		case "unequal":
			return func(fr *frame) { fr.b[d] = cmp(fr) != 0 }
		}
	}
	return nil
}

// tensorElemKind extracts the runtime element kind of a Tensor type.
func tensorElemKind(t types.Type) runtime.Kind {
	if !types.IsTensor(t) {
		return runtime.KObj
	}
	return runtime.KindOf(t.(*types.Compound).Args[0])
}

// tensorRank is the rank of a Tensor type, 0 for any other.
func tensorRank(t types.Type) int {
	if !types.IsTensor(t) {
		return 0
	}
	r, _ := t.(*types.Compound).Args[1].(*types.Literal)
	if r == nil {
		return 0
	}
	return int(r.Value)
}

// packedRows reports whether whole is a packed array (types.Packed) and row
// a tensor of its elements: the row a Part reads or stores, or a fill
// broadcasts, is a run of whole's storage, not an element of its own.
func packedRows(whole, row types.Type) bool {
	return types.IsTensor(row) && tensorElemKind(whole) != runtime.KObj
}

// tensorArith compiles elementwise tensor arithmetic. Its element function is
// the scalar native's (runtime.ScalarOf): unary_minus for tensor_minus,
// math_f (abs_real for Abs) for tensor_math_f, binary_op for the rest. into
// is the operand whose storage the result is written over (the instruction
// consumes it: nothing reads it again), or -1 for a fresh result.
func (g *gen) tensorArith(native string, into int, in *wir.Instr, regs []reg, dst reg) step {
	elem := tensorElemKind(in.Ty)
	op := native[strings.LastIndex(native, "_")+1:]
	scalar, kinds := "binary_"+op, []runtime.Kind{elem, elem}
	switch {
	case native == "tensor_minus":
		scalar, kinds = "unary_minus", kinds[:1]
	case op == "abs":
		scalar, kinds = "abs_real", kinds[:1]
	case strings.HasPrefix(native, "tensor_math_"):
		scalar, kinds = "math_"+op, kinds[:1]
	}
	s := runtime.ScalarOf(scalar, elem, kinds...)
	if s == nil {
		return nil
	}
	ew := elementwise{native: native, into: into, a: regs[0].idx, d: dst.idx}
	if len(regs) > 1 {
		ew.b = regs[1].idx
	}
	if into >= 0 {
		if l := g.listOperand(in); l != nil && g.fused[l] {
			elems := make([]int, len(l.Args))
			for k, a := range l.Args {
				r, err := g.regOf(a)
				if err != nil {
					return nil
				}
				elems[k] = r.idx
			}
			switch f := s.Fn.(type) {
			case func(int64, int64) int64:
				return zipListStep(ew, f, elems, runtime.KI64, func(fr *frame) []int64 { return fr.i }, func(t *runtime.Tensor) []int64 { return t.I })
			case func(float64, float64) float64:
				return zipListStep(ew, f, elems, runtime.KR64, func(fr *frame) []float64 { return fr.f }, func(t *runtime.Tensor) []float64 { return t.F })
			case func(complex128, complex128) complex128:
				return zipListStep(ew, f, elems, runtime.KC64, func(fr *frame) []complex128 { return fr.c }, func(t *runtime.Tensor) []complex128 { return t.C })
			}
			return nil
		}
	}
	switch f := s.Fn.(type) {
	case func(int64) int64:
		return mapStep(ew, f, (*runtime.Tensor).MapIInto)
	case func(float64) float64:
		return mapStep(ew, f, (*runtime.Tensor).MapFInto)
	case func(complex128) complex128:
		return mapStep(ew, f, (*runtime.Tensor).MapCInto)
	case func(int64, int64) int64:
		return zipStep(ew, f, func(fr *frame, r int) int64 { return fr.i[r] }, (*runtime.Tensor).MapIInto, (*runtime.Tensor).ZipIInto)
	case func(float64, float64) float64:
		return zipStep(ew, f, func(fr *frame, r int) float64 { return fr.f[r] }, (*runtime.Tensor).MapFInto, (*runtime.Tensor).ZipFInto)
	case func(complex128, complex128) complex128:
		return zipStep(ew, f, func(fr *frame, r int) complex128 { return fr.c[r] }, (*runtime.Tensor).MapCInto, (*runtime.Tensor).ZipCInto)
	}
	return nil
}

// elementwise is one elementwise tensor instruction: its native, the operand
// it writes over (into), its operand registers and its destination.
type elementwise struct {
	native     string
	into, a, b int
	d          int
}

// over is what the runtime is handed to write into: t, if it is operand k
// and consumed.
func (ew elementwise) over(t *runtime.Tensor, k int) *runtime.Tensor {
	if ew.into == k {
		return t
	}
	return nil
}

// mapStep maps f over the tensor operand.
func mapStep[T any](ew elementwise, f func(T) T, mapInto func(*runtime.Tensor, func(T) T, *runtime.Tensor) *runtime.Tensor) step {
	return func(fr *frame) {
		t := tensorArg(fr, ew.a)
		fr.o[ew.d] = mapInto(t, f, ew.over(t, 0))
	}
}

// zipStep applies f elementwise to two tensors, or to a tensor and a scalar
// read from its register with reg.
func zipStep[T any](ew elementwise, f func(a, b T) T, reg func(fr *frame, r int) T,
	mapInto func(*runtime.Tensor, func(T) T, *runtime.Tensor) *runtime.Tensor,
	zipInto func(*runtime.Tensor, *runtime.Tensor, func(a, b T) T, *runtime.Tensor) *runtime.Tensor) step {
	switch {
	case strings.HasPrefix(ew.native, "tensor_scalar_"):
		return func(fr *frame) {
			t, s := tensorArg(fr, ew.a), reg(fr, ew.b)
			fr.o[ew.d] = mapInto(t, func(x T) T { return f(x, s) }, ew.over(t, 0))
		}
	case strings.HasPrefix(ew.native, "scalar_tensor_"):
		return func(fr *frame) {
			s, t := reg(fr, ew.a), tensorArg(fr, ew.b)
			fr.o[ew.d] = mapInto(t, func(x T) T { return f(s, x) }, ew.over(t, 1))
		}
	}
	return func(fr *frame) {
		x, y := tensorArg(fr, ew.a), tensorArg(fr, ew.b)
		fr.o[ew.d] = zipInto(x, y, f, [...]*runtime.Tensor{nil, x, y}[ew.into+1])
	}
}

// zipListStep is a two-tensor elementwise operation one operand of which is
// a list of scalars markFused folded into it: element k of that operand is
// read from the k-th scalar's register, file(fr)[elems[k]]. The other
// operand, which the operation writes over unless it is Shared, must be a
// vector of as many elements, as Listable threading requires.
func zipListStep[T any](ew elementwise, f func(a, b T) T, elems []int, kind runtime.Kind,
	file func(*frame) []T, data func(*runtime.Tensor) []T) step {
	listFirst, other := ew.into == 1, ew.a
	if listFirst {
		other = ew.b
	}
	n := len(elems)
	return func(fr *frame) {
		t := tensorArg(fr, other)
		if len(t.Dims) != 1 || t.Dims[0] != n {
			runtime.Throw(runtime.ExcType, "Thread: tensors of unequal shape [%d] and %v", n, t.Dims)
		}
		out := t
		if t.IsShared() {
			out = runtime.NewTensor(kind, n)
		}
		regs, src, dst := file(fr), data(t), data(out)
		for k, r := range elems {
			if listFirst {
				dst[k] = f(regs[r], src[k])
			} else {
				dst[k] = f(src[k], regs[r])
			}
		}
		fr.o[ew.d] = out
	}
}

// genListBuild compiles {e1, ..., en} construction.
func (g *gen) genListBuild(in *wir.Instr) (step, error) {
	regs := make([]reg, len(in.Args))
	for i, a := range in.Args {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		regs[i] = r
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	d := dst.idx
	ty, ok := in.Ty.(*types.Compound)
	if !ok || ty.Ctor != "Tensor" {
		return nil, fmt.Errorf("codegen: Native`List of type %s", in.Ty)
	}
	rank := int(ty.Args[1].(*types.Literal).Value)
	if rank == 1 {
		elem := runtime.KindOf(ty.Args[0])
		n := len(regs)
		return func(fr *frame) {
			t := runtime.NewTensor(elem, n)
			for i, r := range regs {
				switch elem {
				case runtime.KI64:
					t.I[i] = fr.i[r.idx]
				case runtime.KR64:
					t.F[i] = fr.f[r.idx]
				case runtime.KC64:
					t.C[i] = fr.c[r.idx]
				case runtime.KBool:
					t.B[i] = fr.b[r.idx]
				case runtime.KObj:
					t.O[i] = fr.o[r.idx]
				}
			}
			fr.o[d] = t
		}, nil
	}
	// Rank 2 and more: the rows are copied into one packed array, whose row
	// shape the first fixes (a ragged row throws, F2).
	elem := runtime.KindOf(ty.Args[0])
	n := len(regs)
	if n == 0 {
		dims := make([]int, rank)
		return func(fr *frame) { fr.o[d] = runtime.NewTensor(elem, dims...) }, nil
	}
	return func(fr *frame) {
		t := runtime.NewRows(elem, rank-1, n)
		for i, r := range regs {
			t = t.SetRowU(int64(i+1), tensorArg(fr, r.idx))
		}
		fr.o[d] = t
	}, nil
}

// genKernelApply compiles the interpreter escape (F9): box, build the call
// expression, evaluate in the engine.
func (g *gen) genKernelApply(in *wir.Instr) (step, error) {
	regs := make([]reg, len(in.Args))
	for i, a := range in.Args {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		regs[i] = r
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	d := dst.idx
	return func(fr *frame) {
		head := fr.o[regs[0].idx].(expr.Expr)
		args := make([]expr.Expr, len(regs)-1)
		for i, r := range regs[1:] {
			args[i] = fr.o[r.idx].(expr.Expr)
		}
		fr.o[d] = runtime.KernelApply(fr.rt.Engine, head, args)
	}, nil
}
