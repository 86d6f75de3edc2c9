package codegen

import (
	"fmt"

	"wolfc/internal/expr"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/vm"
	"wolfc/internal/wir"
)

// The WVM backend (paper §4.6: "prototype backends exist to target ... the
// existing Wolfram Virtual Machine"): it translates the TWIR of a fully
// inlined single function into bytecode for the legacy stack machine. SSA
// values map to VM slots, basic blocks to bytecode ranges with jump fixups,
// and phi nodes to explicit moves on the edges. Code outside the WVM's
// datatypes — strings, expressions, function values — is reported as
// unsupported, exactly the L1 boundary the paper draws.

// EmitWVM compiles the module's Main function to WVM bytecode. The module
// must have been through the pass pipeline (calls inlined); any remaining
// call to another function, any indirect call, and any value outside the
// VM's datatypes is an error.
func EmitWVM(mod *wir.Module) (*vm.CompiledFunction, error) {
	if !mod.Typed {
		return nil, fmt.Errorf("wvm backend: module must be typed")
	}
	f := mod.Main()
	if f == nil {
		return nil, fmt.Errorf("wvm backend: no Main function")
	}
	w := &wvmGen{
		fn:    f,
		slots: map[wir.Value]int{},
		cf: &vm.CompiledFunction{
			NumArgs:         len(f.Params),
			CompilerVersion: 12, // the new compiler targeting the old VM
			EngineVersion:   12,
		},
	}
	for _, p := range f.Params {
		k, err := vmKindOf(p.Ty)
		if err != nil {
			return nil, err
		}
		w.cf.ArgKinds = append(w.cf.ArgKinds, k)
		w.newSlot(p, k)
	}
	if err := w.generate(); err != nil {
		return nil, err
	}
	return w.cf, nil
}

type wvmGen struct {
	fn      *wir.Function
	cf      *vm.CompiledFunction
	slots   map[wir.Value]int
	kinds   []vm.Kind
	starts  map[*wir.Block]int
	fixups  []fixup
	tempInt int // scratch slots for parallel moves, allocated lazily
}

type fixup struct {
	pc     int
	target *wir.Block
}

func vmKindOf(t types.Type) (vm.Kind, error) {
	switch runtime.KindOf(t) {
	case runtime.KI64:
		return vm.KInt, nil
	case runtime.KR64:
		return vm.KReal, nil
	case runtime.KC64:
		return vm.KComplex, nil
	case runtime.KBool:
		if t == types.TVoid {
			return vm.KVoid, nil
		}
		return vm.KBool, nil
	}
	if c, ok := t.(*types.Compound); ok && c.Ctor == "Tensor" {
		return vm.KTensor, nil
	}
	return 0, fmt.Errorf("wvm backend: type %s is outside the WVM's datatypes", t)
}

func (w *wvmGen) newSlot(v wir.Value, k vm.Kind) int {
	idx := len(w.kinds)
	w.kinds = append(w.kinds, k)
	w.slots[v] = idx
	w.cf.SlotKinds = append(w.cf.SlotKinds, k)
	var sym *expr.Symbol
	if p, ok := v.(*wir.Param); ok {
		sym = p.Sym
	}
	w.cf.SlotSyms = append(w.cf.SlotSyms, sym)
	return idx
}

// slotOf returns (allocating) the slot for an instruction/parameter value.
func (w *wvmGen) slotOf(v wir.Value) (int, error) {
	if s, ok := w.slots[v]; ok {
		return s, nil
	}
	k, err := vmKindOf(v.Type())
	if err != nil {
		return 0, err
	}
	return w.newSlot(v, k), nil
}

func (w *wvmGen) emit(op vm.Op, a, b int32) int {
	w.cf.Code = append(w.cf.Code, vm.Instr{Op: op, A: a, B: b})
	return len(w.cf.Code) - 1
}

// pushConst loads a constant onto the stack.
func (w *wvmGen) pushConst(c *wir.Const) error {
	var v vm.Value
	switch runtime.KindOf(c.Ty) {
	case runtime.KI64:
		i, ok := c.Expr.(*expr.Integer)
		if !ok || !i.IsMachine() {
			return fmt.Errorf("wvm backend: bad integer constant %s", expr.InputForm(c.Expr))
		}
		v = vm.IntValue(i.Int64())
	case runtime.KR64:
		switch x := c.Expr.(type) {
		case *expr.Real:
			v = vm.RealValue(x.V)
		case *expr.Integer:
			v = vm.RealValue(float64(x.Int64()))
		default:
			return fmt.Errorf("wvm backend: bad real constant %s", expr.InputForm(c.Expr))
		}
	case runtime.KC64:
		switch x := c.Expr.(type) {
		case *expr.Complex:
			v = vm.ComplexValue(complex(x.Re, x.Im))
		case *expr.Real:
			v = vm.ComplexValue(complex(x.V, 0))
		default:
			return fmt.Errorf("wvm backend: bad complex constant %s", expr.InputForm(c.Expr))
		}
	case runtime.KBool:
		b, isBool := expr.TruthValue(c.Expr)
		if !isBool && !expr.SameQ(c.Expr, expr.SymNull) {
			return fmt.Errorf("wvm backend: bad boolean constant %s", expr.InputForm(c.Expr))
		}
		v = vm.BoolValue(b)
	default:
		// Constant arrays convert through the VM's expression bridge.
		tv, err := vm.FromExpr(c.Expr)
		if err != nil {
			return fmt.Errorf("wvm backend: constant %s: %w", expr.InputForm(c.Expr), err)
		}
		v = tv
	}
	w.pushLit(v)
	return nil
}

// pushLit interns v in the constant pool and pushes it.
func (w *wvmGen) pushLit(v vm.Value) {
	for i, existing := range w.cf.Consts {
		if existing == v {
			w.emit(vm.OpPushConst, int32(i), 0)
			return
		}
	}
	w.cf.Consts = append(w.cf.Consts, v)
	w.emit(vm.OpPushConst, int32(len(w.cf.Consts)-1), 0)
}

// pushValue loads any operand onto the stack.
func (w *wvmGen) pushValue(v wir.Value) error {
	switch x := v.(type) {
	case *wir.Const:
		return w.pushConst(x)
	case *wir.Param, *wir.Instr:
		s, err := w.slotOf(v)
		if err != nil {
			return err
		}
		w.emit(vm.OpLoad, int32(s), 0)
		return nil
	case *wir.FuncRef:
		return fmt.Errorf("wvm backend: function values are outside the WVM's datatypes (L1)")
	}
	return fmt.Errorf("wvm backend: unsupported operand %T", v)
}

func (w *wvmGen) generate() error {
	w.starts = map[*wir.Block]int{}
	for _, b := range w.fn.Blocks {
		w.starts[b] = len(w.cf.Code)
		for _, in := range b.Instrs {
			if in.IsTerminator() {
				if err := w.genTerminator(b, in); err != nil {
					return err
				}
				break
			}
			if err := w.genInstr(in); err != nil {
				return err
			}
		}
	}
	for _, fx := range w.fixups {
		w.cf.Code[fx.pc].A = int32(w.starts[fx.target])
	}
	return nil
}

// phiMoves emits the edge moves into target's phi slots, parallel-safe.
func (w *wvmGen) phiMoves(from, to *wir.Block) error {
	if len(to.Phis) == 0 {
		return nil
	}
	predIdx := -1
	for i, p := range to.Preds {
		if p == from {
			predIdx = i
		}
	}
	if predIdx < 0 {
		return fmt.Errorf("wvm backend: edge %s->%s missing", from.Label, to.Label)
	}
	type move struct {
		dst int
		src wir.Value
	}
	var moves []move
	for _, phi := range to.Phis {
		dst, err := w.slotOf(phi)
		if err != nil {
			return err
		}
		src := phi.Args[predIdx]
		if s, ok := w.slots[src]; ok && s == dst {
			continue
		}
		moves = append(moves, move{dst: dst, src: src})
	}
	// Push all sources, then store in reverse: the stack is the temporary,
	// so parallel-move cycles resolve for free.
	for _, m := range moves {
		if err := w.pushValue(m.src); err != nil {
			return err
		}
	}
	for i := len(moves) - 1; i >= 0; i-- {
		w.emit(vm.OpStore, int32(moves[i].dst), 0)
	}
	return nil
}

func (w *wvmGen) genTerminator(b *wir.Block, in *wir.Instr) error {
	switch in.Op {
	case wir.OpReturn:
		if len(in.Args) == 1 {
			if err := w.pushValue(in.Args[0]); err != nil {
				return err
			}
		}
		w.emit(vm.OpRet, 0, 0)
		return nil
	case wir.OpBranch:
		if err := w.phiMoves(b, in.Targets[0]); err != nil {
			return err
		}
		pc := w.emit(vm.OpJmp, 0, 0)
		w.fixups = append(w.fixups, fixup{pc: pc, target: in.Targets[0]})
		return nil
	case wir.OpCondBranch:
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		elsePC := w.emit(vm.OpJmpIfFalse, 0, 0)
		if err := w.phiMoves(b, in.Targets[0]); err != nil {
			return err
		}
		thenPC := w.emit(vm.OpJmp, 0, 0)
		w.fixups = append(w.fixups, fixup{pc: thenPC, target: in.Targets[0]})
		w.cf.Code[elsePC].A = int32(len(w.cf.Code))
		if err := w.phiMoves(b, in.Targets[1]); err != nil {
			return err
		}
		elseJmp := w.emit(vm.OpJmp, 0, 0)
		w.fixups = append(w.fixups, fixup{pc: elseJmp, target: in.Targets[1]})
		return nil
	}
	return fmt.Errorf("wvm backend: bad terminator")
}

// store pops the result into the instruction's slot.
func (w *wvmGen) store(in *wir.Instr) error {
	s, err := w.slotOf(in)
	if err != nil {
		return err
	}
	w.emit(vm.OpStore, int32(s), 0)
	return nil
}

// binOp pushes both args and emits the opcode + store.
func (w *wvmGen) binOp(in *wir.Instr, op vm.Op) error {
	if err := w.pushValue(in.Args[0]); err != nil {
		return err
	}
	if err := w.pushValue(in.Args[1]); err != nil {
		return err
	}
	w.emit(op, 0, 0)
	return w.store(in)
}

// mixedOp widens one side to real before the real opcode.
func (w *wvmGen) mixedOp(in *wir.Instr, op vm.Op, widenFirst bool) error {
	if err := w.pushValue(in.Args[0]); err != nil {
		return err
	}
	if widenFirst {
		w.emit(vm.OpToReal, 0, 0)
	}
	if err := w.pushValue(in.Args[1]); err != nil {
		return err
	}
	if !widenFirst {
		w.emit(vm.OpToReal, 0, 0)
	}
	w.emit(op, 0, 0)
	return w.store(in)
}

func (w *wvmGen) unOp(in *wir.Instr, op vm.Op) error {
	if err := w.pushValue(in.Args[0]); err != nil {
		return err
	}
	w.emit(op, 0, 0)
	return w.store(in)
}

func (w *wvmGen) math1(in *wir.Instr, id int32, widen bool) error {
	if err := w.pushValue(in.Args[0]); err != nil {
		return err
	}
	if widen {
		w.emit(vm.OpToReal, 0, 0)
	}
	w.emit(vm.OpMath1, id, 0)
	return w.store(in)
}

func (w *wvmGen) genInstr(in *wir.Instr) error {
	switch in.Op {
	case wir.OpAbortCheck:
		w.emit(vm.OpAbortCheck, 0, 0)
		return nil
	case wir.OpClosure, wir.OpCallIndirect:
		return fmt.Errorf("wvm backend: function values are outside the WVM's datatypes (L1)")
	case wir.OpCall:
		if in.ResolvedFn != nil {
			return fmt.Errorf("wvm backend: call to %s survived inlining; the WVM has no call instruction", in.ResolvedFn.Name)
		}
		return w.genNative(in)
	}
	return fmt.Errorf("wvm backend: unsupported op %d", in.Op)
}

func (w *wvmGen) genNative(in *wir.Instr) error {
	// The VM's values are immutable: an elementwise native that writes over
	// an operand is the plain one here.
	native, _ := passes.CutInto(in.NativeName())
	isInt := in.Ty == types.TInt64
	argInt := len(in.Args) > 0 && runtime.KindOf(in.Args[0].Type()) == runtime.KI64

	switch native {
	case "binary_plus":
		if isInt {
			return w.binOp(in, vm.OpAddI)
		}
		return w.binOp(in, vm.OpAddR)
	case "binary_subtract":
		if isInt {
			return w.binOp(in, vm.OpSubI)
		}
		return w.binOp(in, vm.OpSubR)
	case "binary_times":
		if isInt {
			return w.binOp(in, vm.OpMulI)
		}
		return w.binOp(in, vm.OpMulR)
	case "binary_divide":
		return w.binOp(in, vm.OpDivR)
	case "divide_int_real":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		w.emit(vm.OpToReal, 0, 0)
		if err := w.pushValue(in.Args[1]); err != nil {
			return err
		}
		w.emit(vm.OpToReal, 0, 0)
		w.emit(vm.OpDivR, 0, 0)
		return w.store(in)
	case "mixed_ir_plus":
		return w.mixedOp(in, vm.OpAddR, true)
	case "mixed_ri_plus":
		return w.mixedOp(in, vm.OpAddR, false)
	case "mixed_ir_times":
		return w.mixedOp(in, vm.OpMulR, true)
	case "mixed_ri_times":
		return w.mixedOp(in, vm.OpMulR, false)
	case "mixed_ir_subtract":
		return w.mixedOp(in, vm.OpSubR, true)
	case "mixed_ri_subtract":
		return w.mixedOp(in, vm.OpSubR, false)
	case "mixed_ir_divide":
		return w.mixedOp(in, vm.OpDivR, true)
	case "mixed_ri_divide":
		return w.mixedOp(in, vm.OpDivR, false)
	case "unary_minus":
		if isInt {
			return w.unOp(in, vm.OpNegI)
		}
		return w.unOp(in, vm.OpNegR)
	case "power_int":
		return w.binOp(in, vm.OpPowI)
	case "power_real":
		return w.binOp(in, vm.OpPowR)
	case "power_real_int":
		return w.mixedOp(in, vm.OpPowR, false)
	case "mod_int":
		return w.binOp(in, vm.OpModI)
	case "quotient_int":
		return w.binOp(in, vm.OpQuotI)
	case "cmp_less":
		if argInt {
			return w.binOp(in, vm.OpLtI)
		}
		return w.binOp(in, vm.OpLtR)
	case "cmp_lessequal":
		if argInt {
			return w.binOp(in, vm.OpLeI)
		}
		return w.binOp(in, vm.OpLeR)
	case "cmp_greater":
		if argInt {
			return w.binOp(in, vm.OpGtI)
		}
		return w.binOp(in, vm.OpGtR)
	case "cmp_greaterequal":
		if argInt {
			return w.binOp(in, vm.OpGeI)
		}
		return w.binOp(in, vm.OpGeR)
	case "cmp_equal":
		if argInt {
			return w.binOp(in, vm.OpEqI)
		}
		return w.binOp(in, vm.OpEqR)
	case "cmp_unequal":
		if argInt {
			return w.binOp(in, vm.OpNeI)
		}
		return w.binOp(in, vm.OpNeR)
	case "mixed_ir_cmp_less":
		return w.mixedOp(in, vm.OpLtR, true)
	case "mixed_ri_cmp_less":
		return w.mixedOp(in, vm.OpLtR, false)
	case "mixed_ir_cmp_lessequal":
		return w.mixedOp(in, vm.OpLeR, true)
	case "mixed_ri_cmp_lessequal":
		return w.mixedOp(in, vm.OpLeR, false)
	case "mixed_ir_cmp_greater":
		return w.mixedOp(in, vm.OpGtR, true)
	case "mixed_ri_cmp_greater":
		return w.mixedOp(in, vm.OpGtR, false)
	case "mixed_ir_cmp_greaterequal":
		return w.mixedOp(in, vm.OpGeR, true)
	case "mixed_ri_cmp_greaterequal":
		return w.mixedOp(in, vm.OpGeR, false)
	case "not":
		return w.unOp(in, vm.OpNot)
	case "and":
		return w.binOp(in, vm.OpAndB)
	case "or":
		return w.binOp(in, vm.OpOrB)
	case "bitand":
		return w.binOp(in, vm.OpBAnd)
	case "bitor":
		return w.binOp(in, vm.OpBOr)
	case "bitxor":
		return w.binOp(in, vm.OpBXor)
	case "bitshiftleft":
		return w.binOp(in, vm.OpShl)
	case "bitshiftright":
		return w.binOp(in, vm.OpShr)
	case "math_sin", "math_cos", "math_tan", "math_exp", "math_log",
		"math_sqrt", "math_arctan", "math_arcsin", "math_arccos":
		return w.math1(in, wvmMathID(native), false)
	case "math_sin_int", "math_cos_int", "math_tan_int", "math_exp_int",
		"math_log_int", "math_sqrt_int", "math_arctan_int",
		"math_arcsin_int", "math_arccos_int":
		return w.math1(in, wvmMathID(native[:len(native)-4]), true)
	case "math_atan2":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		if err := w.pushValue(in.Args[1]); err != nil {
			return err
		}
		w.emit(vm.OpMath2, vm.MfArcTan2, 0)
		return w.store(in)
	case "abs_real":
		return w.math1(in, vm.MfAbs, false)
	case "abs_int":
		// Max[x, -x] through OpMath2, which preserves integer kind.
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		w.emit(vm.OpNegI, 0, 0)
		w.emit(vm.OpMath2, vm.MfMax, 0)
		return w.store(in)
	case "evenq", "oddq":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		w.pushLit(vm.IntValue(2))
		w.emit(vm.OpModI, 0, 0)
		w.pushLit(vm.IntValue(0))
		if native == "evenq" {
			w.emit(vm.OpEqI, 0, 0)
		} else {
			w.emit(vm.OpNeI, 0, 0)
		}
		return w.store(in)
	case "floor_real":
		return w.math1(in, vm.MfFloor, false)
	case "ceiling_real":
		return w.math1(in, vm.MfCeiling, false)
	case "round_real":
		return w.math1(in, vm.MfRound, false)
	case "sign_int", "sign_real":
		return w.math1(in, vm.MfSign, false)
	case "identity_int":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		return w.store(in)
	case "to_real64":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		w.emit(vm.OpToReal, 0, 0)
		return w.store(in)
	case "min":
		return w.binOp2Math(in, vm.MfMin)
	case "max":
		return w.binOp2Math(in, vm.MfMax)
	case "list_take":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		if err := w.pushValue(in.Args[1]); err != nil {
			return err
		}
		w.emit(vm.OpRuntime, vm.RtTake, 2)
		return w.store(in)
	case "tensor_length":
		s, ok := w.slots[in.Args[0]]
		if ok {
			w.emit(vm.OpLengthV, int32(s), 0)
			return w.store(in)
		}
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		w.emit(vm.OpLength, 0, 0)
		return w.store(in)
	case "part_1", "part_unsafe_1", "part_2", "part_unsafe_2":
		nIdx := len(in.Args) - 1
		if s, ok := w.slots[in.Args[0]]; ok {
			for _, a := range in.Args[1:] {
				if err := w.pushValue(a); err != nil {
					return err
				}
			}
			w.emit(vm.OpPartV, int32(s), int32(nIdx))
			return w.store(in)
		}
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		for _, a := range in.Args[1:] {
			if err := w.pushValue(a); err != nil {
				return err
			}
		}
		w.emit(vm.OpPart, int32(nIdx), 0)
		return w.store(in)
	case "setpart_1", "setpart_unsafe_1", "setpart_2", "setpart_unsafe_2":
		s, ok := w.slots[in.Args[0]]
		if !ok {
			return fmt.Errorf("wvm backend: Part assignment to a non-slot tensor")
		}
		nIdx := len(in.Args) - 2
		for _, a := range in.Args[1 : 1+nIdx] {
			if err := w.pushValue(a); err != nil {
				return err
			}
		}
		if err := w.pushValue(in.Args[len(in.Args)-1]); err != nil {
			return err
		}
		w.emit(vm.OpSetPart, int32(s), int32(nIdx))
		w.emit(vm.OpPop, 0, 0)
		// The SSA result aliases the mutated slot.
		w.slots[in] = s
		return nil
	case "list_new", "matrix_new":
		elem := tensorElemKind(in.Ty)
		rt := int32(vm.RtTableReal)
		if elem == runtime.KI64 {
			rt = vm.RtTableInt
		} else if elem != runtime.KR64 {
			return fmt.Errorf("wvm backend: tensor element type outside the WVM's datatypes")
		}
		if native == "matrix_new" {
			return fmt.Errorf("wvm backend: rank-2 allocation is not a WVM runtime call")
		}
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		w.emit(vm.OpRuntime, rt, 1)
		return w.store(in)
	case "list_fill", "matrix_fill":
		if elem := tensorElemKind(in.Ty); elem != runtime.KI64 && elem != runtime.KR64 {
			return fmt.Errorf("wvm backend: tensor element type outside the WVM's datatypes")
		}
		for _, a := range in.Args {
			if err := w.pushValue(a); err != nil {
				return err
			}
		}
		w.emit(vm.OpRuntime, vm.RtFill, int32(len(in.Args)))
		return w.store(in)
	case "copy_tensor":
		// Copy-on-read gives a fresh tensor for free.
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		return w.store(in)
	case "memory_acquire", "memory_release":
		return nil // the WVM's refcounting is implicit in copy-on-read
	case "dot_vv", "dot_mv", "dot_mm":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		if err := w.pushValue(in.Args[1]); err != nil {
			return err
		}
		w.emit(vm.OpRuntime, vm.RtDot, 2)
		return w.store(in)
	case "random_real01":
		w.emit(vm.OpRuntime, vm.RtRandomReal, 0)
		return w.store(in)
	case "random_real_range":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		if err := w.pushValue(in.Args[1]); err != nil {
			return err
		}
		w.emit(vm.OpRuntime, vm.RtRandomReal, 2)
		return w.store(in)
	case "random_int_range":
		if err := w.pushValue(in.Args[0]); err != nil {
			return err
		}
		if err := w.pushValue(in.Args[1]); err != nil {
			return err
		}
		w.emit(vm.OpRuntime, vm.RtRandomInt, 2)
		return w.store(in)
	}
	return fmt.Errorf("wvm backend: primitive %q is outside the WVM's instruction set", native)
}

func (w *wvmGen) binOp2Math(in *wir.Instr, id int32) error {
	if err := w.pushValue(in.Args[0]); err != nil {
		return err
	}
	if err := w.pushValue(in.Args[1]); err != nil {
		return err
	}
	w.emit(vm.OpMath2, id, 0)
	return w.store(in)
}

func wvmMathID(native string) int32 {
	switch native {
	case "math_sin":
		return vm.MfSin
	case "math_cos":
		return vm.MfCos
	case "math_tan":
		return vm.MfTan
	case "math_exp":
		return vm.MfExp
	case "math_log":
		return vm.MfLog
	case "math_sqrt":
		return vm.MfSqrt
	case "math_arctan":
		return vm.MfArcTan
	case "math_arcsin":
		return vm.MfArcSin
	case "math_arccos":
		return vm.MfArcCos
	}
	return vm.MfSin
}
