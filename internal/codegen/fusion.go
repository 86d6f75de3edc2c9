// The scalar natives and their fusion. buildEvalI/F/B/C build each scalar
// native as a typed evaluator whose operands are registers, inlined literals
// or nested evaluators, around the native's function in the runtime's scalar
// table (runtime.ScalarOf), which is what the native computes. An
// instruction compiled on its own is a one-node tree (genNative); the rest of
// this file is about larger trees.
//
// Superinstruction fusion (ISSUE 2): the closure-threaded analogue of
// Copy-and-Patch stencil chaining. A def-use chain of scalar instructions
// whose intermediates are dead after the chain collapses into one closure
// evaluating the whole expression tree, so a hot loop body executes one or
// two indirect calls instead of one per TWIR instruction. Fusion is purely
// intra-block: OpAbortCheck instructions are never fused and never crossed,
// so abort polling keeps its per-iteration granularity (every loop header
// still polls between fused units).
//
// Marking runs in two phases. Phase 1 folds single-use instructions into a
// later consumer in the same block (an evaluable native, a Part store, the
// conditional branch, or the return). Phase 2 folds trees whose single use
// is a phi argument on an edge leaving the defining block into that edge's
// parallel move. Both phases defer the producer's evaluation to the
// consumer's position, which is legal only when no instruction in between
// can observe or change state the tree depends on — barrierInstr is the
// gate. Registers are SSA (written once by their defining instruction;
// phi registers only change on edges), so deferring register reads within
// a block is always safe; the barrier exists for tensor stores, RNG draws,
// and engine escapes.
package codegen

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"wolfc/internal/expr"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// Typed evaluators: a fused expression tree compiles to one of these per
// node, reading operand registers (or literals, or nested evaluators)
// directly off the frame.
type (
	evalI func(fr *frame) int64
	evalF func(fr *frame) float64
	evalB func(fr *frame) bool
	evalC func(fr *frame) complex128
)

// Operand addressing modes for fused tree nodes.
const (
	opRegMode  = iota // read a frame register
	opLitMode         // inlined constant
	opEvalMode        // nested fused subtree
)

type opI struct {
	mode int
	idx  int
	lit  int64
	ev   evalI
}

func (x opI) get(fr *frame) int64 {
	switch x.mode {
	case opRegMode:
		return fr.i[x.idx]
	case opLitMode:
		return x.lit
	}
	return x.ev(fr)
}

type opF struct {
	mode int
	idx  int
	lit  float64
	ev   evalF
}

func (x opF) get(fr *frame) float64 {
	switch x.mode {
	case opRegMode:
		return fr.f[x.idx]
	case opLitMode:
		return x.lit
	}
	return x.ev(fr)
}

type opB struct {
	mode int
	idx  int
	lit  bool
	ev   evalB
}

func (x opB) get(fr *frame) bool {
	switch x.mode {
	case opRegMode:
		return fr.b[x.idx]
	case opLitMode:
		return x.lit
	}
	return x.ev(fr)
}

type opC struct {
	mode int
	idx  int
	lit  complex128
	ev   evalC
}

func (x opC) get(fr *frame) complex128 {
	switch x.mode {
	case opRegMode:
		return fr.c[x.idx]
	case opLitMode:
		return x.lit
	}
	return x.ev(fr)
}

// The hot binary ops — integer + - *, the bit ops, Mod and Quotient; real
// + - * /; the six compares on integers and reals — do not go through get.
// Which mode each operand has is known when the closure is built, so each of
// them has one closure body per mode pair, generated into fusion_modes.go
// from modegen's table (whose rows name the runtime functions) and chosen
// once by the constructors below. Everything else in buildEval* is cold
// enough to keep get's switch and call its function through a func value.
//
//go:generate go run ./modegen -o fusion_modes.go

// arith holds the generated constructors of one arithmetic op: as an
// interior node of a tree and as "dst = x op y", the root of one.
type arith[O, E any] struct {
	eval   func(x, y O) E
	assign func(d int, x, y O) step
}

// compare holds the generated constructor of one compare, as a node.
type compare[O any] struct {
	eval func(x, y O) evalB
}

// ---------------------------------------------------------------------------
// Marking

// markFused marks every instruction foldable into its single consumer, and
// records the consumer in g.into; with fusion off g.fused stays nil and
// nothing reads as fused.
//
// A call with a scalar result fuses too, as a node, and is a barrier to every
// other producer. A tree runs its operands left to right where its root is, so
// for one with a call in it the tree's post-order must be the block's order:
// it may be deferred only past what its consumer evaluates after it (fused at
// a later operand), into consumers that evaluate each operand once, in order.
func (g *gen) markFused() error {
	if !g.fuse {
		return nil
	}
	g.fused, g.into = map[*wir.Instr]bool{}, map[*wir.Instr]*wir.Instr{}
	// Phase 1: chains ending at a later instruction of the same block
	// (including the conditional branch and the return). Reverse order so a
	// consumer already marked fused extends the chain transitively, and so
	// that everything between a producer and its consumer is settled first.
	for _, b := range g.fn.Blocks {
		n := len(b.Instrs)
		for idx := n - 1; idx >= 0; idx-- {
			in := b.Instrs[idx]
			if !g.producer(in) {
				continue
			}
			var consumer *wir.Instr
			cidx := -1
			for j := idx + 1; j < n; j++ {
				if usesValue(b.Instrs[j], in) {
					consumer = b.Instrs[j]
					cidx = j
					break
				}
			}
			if consumer == nil {
				continue // cross-block or phi use: phase 2
			}
			if !g.consumerAccepts(consumer, in) {
				continue
			}
			if !g.deferrable(b.Instrs, idx, cidx, g.isCall(in)) {
				continue
			}
			g.fused[in], g.into[in] = true, consumer
		}
	}
	// Phase 2: trees whose single use is a phi argument on an edge leaving
	// the defining block fuse into the edge's parallel move. The move
	// sequencer (wir.SequenceCopies) orders moves by their read sets and
	// saves a tree in a temporary register when a cycle needs one, so a tree
	// may freely read registers that other moves on the same edge overwrite. It
	// reorders the trees, too, so one with a call in it fuses only as the
	// block's last instruction: every other tree on the edge would have to
	// be deferred past its call.
	for _, b := range g.fn.Blocks {
		t := b.Term()
		if t == nil || len(t.Targets) == 0 {
			continue
		}
		if len(t.Targets) == 2 && t.Targets[0] == t.Targets[1] {
			continue // duplicate edge: predecessor index is ambiguous
		}
		n := len(b.Instrs)
		for idx := n - 1; idx >= 0; idx-- {
			in := b.Instrs[idx]
			if !g.producer(in) || g.fused[in] {
				continue
			}
			local := false
			for j := idx + 1; j < n; j++ {
				if usesValue(b.Instrs[j], in) {
					local = true
					break
				}
			}
			if local {
				continue
			}
			phi, _ := g.findPhiUse(b, in)
			if phi == nil || !g.deferrable(b.Instrs, idx, n-1, false) || g.bearsCall(in) && idx != n-2 {
				continue
			}
			g.fused[in], g.into[in] = true, phi
		}
	}
	// Phase 3: a list of scalars whose one use is a two-tensor elementwise
	// operation writing over its other operand is never built: the operation
	// reads the scalars' registers (zipListStep). Nothing else reads it, and
	// registers are not reused, so they still hold what the list would have.
	for _, b := range g.fn.Blocks {
		for _, in := range b.Instrs {
			if l := g.listOperand(in); l != nil {
				g.fused[l], g.into[l] = true, in
			}
		}
	}
	return nil
}

// listOperand returns the Native`List operand of in that markFused folds
// into it, or nil.
func (g *gen) listOperand(in *wir.Instr) *wir.Instr {
	if in.Op != wir.OpCall {
		return nil
	}
	native, into := passes.CutInto(in.NativeName())
	if into < 0 || len(passes.ElementwiseOperands(native)) != 2 {
		return nil
	}
	l, ok := in.Args[1-into].(*wir.Instr)
	if !ok || l.Callee != "Native`List" || l.Block != in.Block || g.useCount(l) != 1 ||
		tensorRank(l.Ty) != 1 || tensorElemKind(l.Ty) == runtime.KObj {
		return nil
	}
	return l
}

// producer reports whether in may be a node of a tree: it has one use, and it
// is a native with an evaluator or a call with a scalar result.
func (g *gen) producer(in *wir.Instr) bool {
	return !in.IsTerminator() && g.useCount(in) == 1 && (fusibleProducer(in) ||
		g.isCall(in) && in.Ty != nil && in.Ty != types.TVoid && runtime.KindOf(in.Ty) != runtime.KObj)
}

// bearsCall reports whether a call is fused into in's tree, or is in.
func (g *gen) bearsCall(in *wir.Instr) bool {
	return g.isCall(in) || slices.ContainsFunc(in.Args, func(a wir.Value) bool {
		x, ok := a.(*wir.Instr)
		return ok && g.fused[x] && g.bearsCall(x)
	})
}

// usesValue reports whether in has v among its operands.
func usesValue(in *wir.Instr, v wir.Value) bool {
	for _, a := range in.Args {
		if a == v {
			return true
		}
	}
	return false
}

// findPhiUse locates the phi using in as an argument on an edge out of b.
func (g *gen) findPhiUse(b *wir.Block, in *wir.Instr) (*wir.Instr, *wir.Block) {
	t := b.Term()
	for _, s := range t.Targets {
		for _, p := range s.Phis {
			for pi, a := range p.Args {
				if a == in && pi < len(s.Preds) && s.Preds[pi] == b {
					return p, s
				}
			}
		}
	}
	return nil, nil
}

// deferrable reports whether instrs[from] may be evaluated at instrs[to]'s
// position. What lies between runs first, unless to's tree evaluates it
// later; anything else must be no barrier, and none at all that compiles to
// code may be crossed when from's tree holds a call (calls is set). Once it
// does, every consumer above it must keep the order too, up to the root of
// the tree.
func (g *gen) deferrable(instrs []*wir.Instr, from, to int, calls bool) bool {
	for k := from + 1; k < to; k++ {
		if x := instrs[k]; !g.evaluatedAfter(x, instrs[from], instrs[to]) && (calls && !noCode(x) || !calls && barrierInstr(x)) {
			return false
		}
	}
	c := instrs[to]
	return !calls || g.keepsOrder(c) && (!g.fused[c] || g.deferrable(instrs, to, slices.Index(instrs, g.into[c]), true))
}

// evaluatedAfter reports whether x is fused into c's tree at an operand of c
// after p's.
func (g *gen) evaluatedAfter(x, p, c *wir.Instr) bool {
	at := slices.Index(c.Args, wir.Value(p))
	for ; at >= 0 && g.fused[x]; x = g.into[x] {
		if g.into[x] == c {
			return slices.Index(c.Args, wir.Value(x)) > at
		}
	}
	return false
}

// keepsOrder reports whether c evaluates each operand once, left to right,
// before it does anything else: what a consumer of a tree with a call in it
// must do. A Part store reads its value before its index, and And and Or do
// not evaluate their second operand at all when the first decides.
func (g *gen) keepsOrder(c *wir.Instr) bool {
	native := c.NativeName()
	return c.Op == wir.OpCondBranch || c.Op == wir.OpReturn || g.isCall(c) || fusibleProducer(c) && native != "and" && native != "or"
}

// barrierInstr reports whether a fused tree may NOT be deferred past in. An
// instruction that compiles to nothing is none; a native is one when its
// library row declares it Effectful (a tensor store, an RNG draw, an engine
// escape, a pattern miss) or no row declares it at all.
func barrierInstr(in *wir.Instr) bool {
	switch in.Op {
	case wir.OpPhi, wir.OpClosure:
		return false
	case wir.OpCall:
		if in.ResolvedFn != nil {
			return true
		}
		if noCode(in) {
			return false
		}
		switch in.Callee {
		case "Native`List":
			return false // pure construction from registers
		case "Native`KernelApply":
			return true
		}
		// An elementwise native that writes over its operand is as pure as
		// the plain one: nothing else can see the operand it consumes.
		native, _ := passes.CutInto(in.NativeName())
		return types.NativeEffect(native, in.Ty) == types.Effectful
	}
	// Indirect calls, abort checks, terminators.
	return true
}

// fusibleProducer reports whether in is a native call the evaluator builders
// compile: a scalar native at operand and result kinds the runtime has a
// function for (passes.ScalarOf), or one of the named arms — cast (its result
// depends on the target width), tensor_length, string_byte and the Part reads
// of a scalar element. Everything it admits is built by buildEvalI/F/B/C and
// by nothing else (selectNative has no arm for it, the tensor loads apart),
// can become an interior node of a fused tree, and is declared Pure or
// Throws, so never a barrier; TestOneSpellingPerScalarNative walks the
// standard library to hold the three together.
func fusibleProducer(in *wir.Instr) bool {
	if in.Op != wir.OpCall || in.ResolvedFn != nil || in.Ty == nil || in.IsTerminator() {
		return false
	}
	switch in.Callee {
	case "Native`List", "Native`KernelApply":
		return false
	}
	rk := runtime.KindOf(in.Ty)
	switch in.NativeName() {
	case "cast", "tensor_length", "string_byte":
		return rk == runtime.KI64
	case "part_1", "part_unsafe_1":
		return rk != runtime.KObj
	case "part_2", "part_unsafe_2":
		return rk != runtime.KObj && rk != runtime.KBool
	}
	return passes.ScalarOf(in) != nil
}

// consumerAccepts reports whether the generator can evaluate in at
// consumer's position (genNative's evaluator and genSetPart routes, the call
// node and the terminator routes must cover everything accepted here).
func (g *gen) consumerAccepts(consumer, in *wir.Instr) bool {
	switch consumer.Op {
	case wir.OpCondBranch:
		return consumer.Args[0] == in && runtime.KindOf(in.Ty) == runtime.KBool
	case wir.OpReturn:
		return true
	case wir.OpCall, wir.OpCallIndirect:
		if g.isCall(consumer) {
			return operandArgs(consumer)
		}
		if fusibleProducer(consumer) {
			return true
		}
		switch consumer.NativeName() {
		case "setpart_1", "setpart_unsafe_1":
			// Index or value operands only; the tensor stays a register
			// (it is an object, so it can never be a fused producer).
			if consumer.Args[2] == in && runtime.KindOf(in.Ty) == runtime.KObj {
				return false
			}
			return consumer.Args[0] != in
		case "setpart_2", "setpart_unsafe_2":
			if consumer.Args[3] == in && runtime.KindOf(in.Ty) == runtime.KBool {
				return false // no rank-2 bool mutator
			}
			return consumer.Args[0] != in
		}
	}
	return false
}

// isSetPart names the Part stores, which genSetPart builds.
func isSetPart(native string) bool {
	switch native {
	case "setpart_1", "setpart_unsafe_1", "setpart_2", "setpart_unsafe_2":
		return true
	}
	return false
}

// hasFusedArg reports whether any direct operand of in was fused.
func (g *gen) hasFusedArg(in *wir.Instr) bool {
	for _, a := range in.Args {
		if x, ok := a.(*wir.Instr); ok && g.fused[x] {
			return true
		}
	}
	return false
}

// evalLeafRegs collects the registers a fused tree reads: the registers of
// every non-fused, non-constant operand reachable through fused children.
func (g *gen) evalLeafRegs(in *wir.Instr, leaves *[]reg) error {
	for _, a := range in.Args {
		switch x := a.(type) {
		case *wir.Const, *wir.FuncRef:
			// Initialised at frame setup, never written by moves.
		case *wir.Instr:
			if g.fused[x] {
				if err := g.evalLeafRegs(x, leaves); err != nil {
					return err
				}
				continue
			}
			r, err := g.regOf(x)
			if err != nil {
				return err
			}
			*leaves = append(*leaves, r)
		default:
			r, err := g.regOf(a)
			if err != nil {
				return err
			}
			*leaves = append(*leaves, r)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Operand builders

func (g *gen) opIFor(v wir.Value) (opI, error) {
	if in, ok := v.(*wir.Instr); ok && g.fused[in] {
		ev, err := g.buildEvalI(in)
		if err != nil {
			return opI{}, err
		}
		return opI{mode: opEvalMode, ev: ev}, nil
	}
	if c, ok := v.(*wir.Const); ok {
		if i, ok2 := c.Expr.(*expr.Integer); ok2 && i.IsMachine() &&
			c.Type() != nil && runtime.KindOf(c.Type()) == runtime.KI64 {
			return opI{mode: opLitMode, lit: i.Int64()}, nil
		}
	}
	r, err := g.regOf(v)
	if err != nil {
		return opI{}, err
	}
	if r.kind != runtime.KI64 {
		return opI{}, fmt.Errorf("codegen %s: fused operand %s is not an integer", g.fn.Name, v.Name())
	}
	return opI{mode: opRegMode, idx: r.idx}, nil
}

func (g *gen) opFFor(v wir.Value) (opF, error) {
	if in, ok := v.(*wir.Instr); ok && g.fused[in] {
		ev, err := g.buildEvalF(in)
		if err != nil {
			return opF{}, err
		}
		return opF{mode: opEvalMode, ev: ev}, nil
	}
	if c, ok := v.(*wir.Const); ok && c.Type() != nil && runtime.KindOf(c.Type()) == runtime.KR64 {
		switch x := c.Expr.(type) {
		case *expr.Real:
			return opF{mode: opLitMode, lit: x.V}, nil
		case *expr.Integer:
			return opF{mode: opLitMode, lit: float64(x.Int64())}, nil
		case *expr.Rational:
			f, _ := x.V.Float64()
			return opF{mode: opLitMode, lit: f}, nil
		}
	}
	r, err := g.regOf(v)
	if err != nil {
		return opF{}, err
	}
	if r.kind != runtime.KR64 {
		return opF{}, fmt.Errorf("codegen %s: fused operand %s is not a real", g.fn.Name, v.Name())
	}
	return opF{mode: opRegMode, idx: r.idx}, nil
}

func (g *gen) opBFor(v wir.Value) (opB, error) {
	if in, ok := v.(*wir.Instr); ok && g.fused[in] {
		ev, err := g.buildEvalB(in)
		if err != nil {
			return opB{}, err
		}
		return opB{mode: opEvalMode, ev: ev}, nil
	}
	if c, ok := v.(*wir.Const); ok && c.Type() != nil && runtime.KindOf(c.Type()) == runtime.KBool {
		if b, isBool := expr.TruthValue(c.Expr); isBool {
			return opB{mode: opLitMode, lit: b}, nil
		}
	}
	r, err := g.regOf(v)
	if err != nil {
		return opB{}, err
	}
	if r.kind != runtime.KBool {
		return opB{}, fmt.Errorf("codegen %s: fused operand %s is not a boolean", g.fn.Name, v.Name())
	}
	return opB{mode: opRegMode, idx: r.idx}, nil
}

func (g *gen) opCFor(v wir.Value) (opC, error) {
	if in, ok := v.(*wir.Instr); ok && g.fused[in] {
		ev, err := g.buildEvalC(in)
		if err != nil {
			return opC{}, err
		}
		return opC{mode: opEvalMode, ev: ev}, nil
	}
	if c, ok := v.(*wir.Const); ok && c.Type() != nil && runtime.KindOf(c.Type()) == runtime.KC64 {
		switch x := c.Expr.(type) {
		case *expr.Complex:
			return opC{mode: opLitMode, lit: complex(x.Re, x.Im)}, nil
		case *expr.Real:
			return opC{mode: opLitMode, lit: complex(x.V, 0)}, nil
		case *expr.Integer:
			return opC{mode: opLitMode, lit: complex(float64(x.Int64()), 0)}, nil
		}
	}
	r, err := g.regOf(v)
	if err != nil {
		return opC{}, err
	}
	if r.kind != runtime.KC64 {
		return opC{}, fmt.Errorf("codegen %s: fused operand %s is not a complex", g.fn.Name, v.Name())
	}
	return opC{mode: opRegMode, idx: r.idx}, nil
}

// operands builds the descriptors of in's two operands.
func operands[X, Y any](in *wir.Instr, fx func(wir.Value) (X, error), fy func(wir.Value) (Y, error)) (X, Y, error) {
	x, err := fx(in.Args[0])
	if err != nil {
		var y Y
		return x, y, err
	}
	y, err := fy(in.Args[1])
	return x, y, err
}

// scalarFn is the runtime function of in's native at in's kinds, or nil.
func scalarFn(in *wir.Instr) any {
	if s := passes.ScalarOf(in); s != nil {
		return s.Fn
	}
	return nil
}

// ---------------------------------------------------------------------------
// Evaluator builders (one closure per tree node)
//
// A scalar native's node calls its runtime function (scalarFn), one closure
// per function shape; an op modegen generates is built by its operand-mode
// variants instead, inside its shape's arm. The named arms are the natives
// whose operands are not scalars or whose result depends on more than kinds.

func (g *gen) buildEvalI(in *wir.Instr) (evalI, error) {
	if g.isCall(in) {
		cs, err := g.callSite(in)
		return callEvalI(cs), err
	}
	native := in.NativeName()
	switch native {
	case "cast":
		return g.castEval(in)
	case "tensor_length":
		r, err := g.regOf(in.Args[0])
		if err != nil {
			return nil, err
		}
		a := r.idx
		return func(fr *frame) int64 { return int64(tensorArg(fr, a).Len()) }, nil
	case "string_byte":
		return g.stringByteEval(in)
	case "part_1", "part_unsafe_1", "part_2", "part_unsafe_2":
		return g.partEvalI(in, native)
	}
	switch f := scalarFn(in).(type) {
	case func(int64) int64:
		x, err := g.opIFor(in.Args[0])
		return func(fr *frame) int64 { return f(x.get(fr)) }, err
	case func(float64) int64:
		x, err := g.opFFor(in.Args[0])
		return func(fr *frame) int64 { return f(x.get(fr)) }, err
	case func(int64, int64) int64:
		x, y, err := operands(in, g.opIFor, g.opIFor)
		if op, ok := intArith[native]; ok {
			op, y = literalModulus(native, op, y)
			return op.eval(x, y), err
		}
		return func(fr *frame) int64 { return f(x.get(fr), y.get(fr)) }, err
	}
	return nil, fmt.Errorf("codegen %s: no fused integer evaluator for native %q", g.fn.Name, native)
}

// castEval compiles a width cast: the operand wraps to the target width.
func (g *gen) castEval(in *wir.Instr) (evalI, error) {
	x, err := g.opIFor(in.Args[0])
	if err != nil {
		return nil, err
	}
	switch in.Ty.String() {
	case "Integer8":
		return func(fr *frame) int64 { return int64(int8(x.get(fr))) }, nil
	case "Integer16":
		return func(fr *frame) int64 { return int64(int16(x.get(fr))) }, nil
	case "Integer32":
		return func(fr *frame) int64 { return int64(int32(x.get(fr))) }, nil
	case "UnsignedInteger8":
		return func(fr *frame) int64 { return int64(uint8(x.get(fr))) }, nil
	case "UnsignedInteger16":
		return func(fr *frame) int64 { return int64(uint16(x.get(fr))) }, nil
	case "UnsignedInteger32":
		return func(fr *frame) int64 { return int64(uint32(x.get(fr))) }, nil
	case "Integer64", "UnsignedInteger64":
		return func(fr *frame) int64 { return x.get(fr) }, nil
	}
	return nil, fmt.Errorf("codegen %s: fused cast to %s", g.fn.Name, in.Ty)
}

func (g *gen) buildEvalF(in *wir.Instr) (evalF, error) {
	if g.isCall(in) {
		cs, err := g.callSite(in)
		return callEvalF(cs), err
	}
	native := in.NativeName()
	switch native {
	case "part_1", "part_unsafe_1", "part_2", "part_unsafe_2":
		return g.partEvalF(in, native)
	}
	switch f := scalarFn(in).(type) {
	case func(int64) float64:
		x, err := g.opIFor(in.Args[0])
		return func(fr *frame) float64 { return f(x.get(fr)) }, err
	case func(float64) float64:
		x, err := g.opFFor(in.Args[0])
		return func(fr *frame) float64 { return f(x.get(fr)) }, err
	case func(complex128) float64:
		x, err := g.opCFor(in.Args[0])
		return func(fr *frame) float64 { return f(x.get(fr)) }, err
	case func(int64, int64) float64:
		x, y, err := operands(in, g.opIFor, g.opIFor)
		return func(fr *frame) float64 { return f(x.get(fr), y.get(fr)) }, err
	case func(float64, float64) float64:
		if op, ok := realArith[native]; ok {
			if ts, err := g.sumTerms(in); ts != nil || err != nil {
				return sumFEval(ts), err
			}
			x, y, err := operands(in, g.opFFor, g.opFFor)
			return op.eval(x, y), err
		}
		x, y, err := operands(in, g.opFFor, g.opFFor)
		return func(fr *frame) float64 { return f(x.get(fr), y.get(fr)) }, err
	case func(float64, int64) float64:
		x, y, err := operands(in, g.opFFor, g.opIFor)
		return func(fr *frame) float64 { return f(x.get(fr), y.get(fr)) }, err
	case func(int64, float64) float64:
		x, y, err := operands(in, g.opIFor, g.opFFor)
		return func(fr *frame) float64 { return f(x.get(fr), y.get(fr)) }, err
	}
	return nil, fmt.Errorf("codegen %s: no fused real evaluator for native %q", g.fn.Name, native)
}

func (g *gen) buildEvalB(in *wir.Instr) (evalB, error) {
	if g.isCall(in) {
		cs, err := g.callSite(in)
		return callEvalB(cs), err
	}
	native := in.NativeName()
	switch native {
	case "part_1", "part_unsafe_1":
		return g.partEvalB(in, native)
	}
	switch f := scalarFn(in).(type) {
	case func(int64) bool:
		x, err := g.opIFor(in.Args[0])
		return func(fr *frame) bool { return f(x.get(fr)) }, err
	case func(bool) bool:
		x, err := g.opBFor(in.Args[0])
		return func(fr *frame) bool { return f(x.get(fr)) }, err
	case func(int64, int64) bool:
		x, y, err := operands(in, g.opIFor, g.opIFor)
		return intCompare[native].eval(x, y), err
	case func(float64, float64) bool:
		x, y, err := operands(in, g.opFFor, g.opFFor)
		return realCompare[native].eval(x, y), err
	case func(complex128, complex128) bool:
		x, y, err := operands(in, g.opCFor, g.opCFor)
		return func(fr *frame) bool { return f(x.get(fr), y.get(fr)) }, err
	case func(float64, int64) bool:
		x, y, err := operands(in, g.opFFor, g.opIFor)
		return func(fr *frame) bool { return f(x.get(fr), y.get(fr)) }, err
	case func(int64, float64) bool:
		x, y, err := operands(in, g.opIFor, g.opFFor)
		return func(fr *frame) bool { return f(x.get(fr), y.get(fr)) }, err
	case func(bool, bool) bool:
		x, y, err := operands(in, g.opBFor, g.opBFor)
		return func(fr *frame) bool { return f(x.get(fr), y.get(fr)) }, err
	}
	return nil, fmt.Errorf("codegen %s: no fused boolean evaluator for native %q", g.fn.Name, native)
}

func (g *gen) buildEvalC(in *wir.Instr) (evalC, error) {
	if g.isCall(in) {
		cs, err := g.callSite(in)
		return callEvalC(cs), err
	}
	native := in.NativeName()
	switch native {
	case "part_1", "part_unsafe_1", "part_2", "part_unsafe_2":
		return g.partEvalC(in, native)
	}
	switch f := scalarFn(in).(type) {
	case func(complex128) complex128:
		x, err := g.opCFor(in.Args[0])
		return func(fr *frame) complex128 { return f(x.get(fr)) }, err
	case func(complex128, complex128) complex128:
		x, y, err := operands(in, g.opCFor, g.opCFor)
		return func(fr *frame) complex128 { return f(x.get(fr), y.get(fr)) }, err
	case func(complex128, float64) complex128:
		x, y, err := operands(in, g.opCFor, g.opFFor)
		return func(fr *frame) complex128 { return f(x.get(fr), y.get(fr)) }, err
	case func(float64, complex128) complex128:
		x, y, err := operands(in, g.opFFor, g.opCFor)
		return func(fr *frame) complex128 { return f(x.get(fr), y.get(fr)) }, err
	case func(complex128, int64) complex128:
		x, y, err := operands(in, g.opCFor, g.opIFor)
		return func(fr *frame) complex128 { return f(x.get(fr), y.get(fr)) }, err
	case func(float64, float64) complex128:
		x, y, err := operands(in, g.opFFor, g.opFFor)
		return func(fr *frame) complex128 { return f(x.get(fr), y.get(fr)) }, err
	}
	return nil, fmt.Errorf("codegen %s: no fused complex evaluator for native %q", g.fn.Name, native)
}

// The sum node. A fused left-leaning chain of real + and − with three or more
// terms, ((t0 ± t1) ± t2) ± ..., compiles to one closure (sumFEval, generated)
// in place of a closure per operator. It evaluates and accumulates the terms
// in source order, which is the order the nested closures ran them in, so
// every intermediate rounds as it did and a Part range exception fires at the
// same term.

// Leaf kinds of a sumTerm.
const (
	sumReg   = iota // a real register
	sumLit          // a literal
	sumPart1        // part_1 of a tensor register at an index register
	sumPart2        // part_2 of a tensor register at two index registers
	sumEval         // any other fused subtree
)

// sumTerm is one term of a sum node, [−][coef ×] leaf.
type sumTerm struct {
	leaf        int
	neg, scaled bool
	coef, lit   float64
	a, i, j     int // the register of a sumReg leaf; the tensor and index registers of a Part leaf
	ev          evalF
}

// sumChain returns the operands of the chain of real + and − that ends at
// root, last first, with whether each is subtracted; nil when root is not
// such an operator or (as most are) stands alone.
func (g *gen) sumChain(root *wir.Instr) (vals []wir.Value, neg []bool) {
	realAddSub := func(in *wir.Instr) bool {
		native := in.NativeName()
		return (native == "binary_plus" || native == "binary_subtract") && runtime.KindOf(in.Ty) == runtime.KR64
	}
	// next is the link of the chain before in: its left operand, when that
	// is a fused real + or − too.
	next := func(in *wir.Instr) *wir.Instr {
		if left, ok := in.Args[0].(*wir.Instr); ok && g.fused[left] && realAddSub(left) {
			return left
		}
		return nil
	}
	if !realAddSub(root) || next(root) == nil {
		return nil, nil
	}
	first := root
	for in := root; in != nil; in = next(in) {
		vals, neg, first = append(vals, in.Args[1]), append(neg, in.NativeName() == "binary_subtract"), in
	}
	return append(vals, first.Args[0]), append(neg, false)
}

// sumTerms builds the terms of the sum node rooted at root, or nil when the
// chain there has fewer than three.
func (g *gen) sumTerms(root *wir.Instr) ([]sumTerm, error) {
	vals, neg := g.sumChain(root)
	if len(vals) < 3 {
		return nil, nil
	}
	ts := make([]sumTerm, len(vals))
	for k := range ts {
		v := vals[len(vals)-1-k]
		// literal × leaf, either way round: the product commutes bit for bit
		// unless both factors are NaN.
		if in, ok := v.(*wir.Instr); ok && g.fused[in] && in.NativeName() == "binary_times" {
			for side, a := range in.Args {
				if _, ok := a.(*wir.Const); !ok {
					continue
				}
				if c, err := g.opFFor(a); err == nil && c.mode == opLitMode && !math.IsNaN(c.lit) {
					ts[k].scaled, ts[k].coef, v = true, c.lit, in.Args[1-side]
					break
				}
			}
		}
		if err := g.sumLeaf(&ts[k], v); err != nil {
			return nil, err
		}
		ts[k].neg = neg[len(vals)-1-k]
	}
	return ts, nil
}

// sumLeaf fills in t's leaf: a Part read whose operands are all registers is
// read by the node itself, like a register or a literal; anything else fused
// is a subtree.
func (g *gen) sumLeaf(t *sumTerm, v wir.Value) error {
	if in, ok := v.(*wir.Instr); ok && g.fused[in] {
		if native := in.NativeName(); (native == "part_1" || native == "part_2") && !g.hasFusedArg(in) {
			a, i1, i2, rank2, _, err := g.partOperands(in, native)
			if i1.mode == opRegMode && i2.mode == opRegMode {
				t.leaf, t.a, t.i, t.j = sumPart1, a, i1.idx, i2.idx
				if rank2 {
					t.leaf = sumPart2
				}
				return err
			}
		}
	}
	x, err := g.opFFor(v)
	switch x.mode {
	case opRegMode:
		t.leaf, t.a = sumReg, x.idx
	case opLitMode:
		t.leaf, t.lit = sumLit, x.lit
	default:
		t.leaf, t.ev = sumEval, x.ev
	}
	return err
}

// partEval* are the one spelling of a tensor element read (the load half of
// the load-op-store forms). The checked forms inline the positive in-range
// case (runtime.Off1/Off2) and index the element slice directly; zero,
// negative and out-of-range indices take the checked accessor, which resolves
// or throws. The test is written out in every closure because the Go inliner
// will not do it: a t.AtI(i) wrapper around it costs 99 against the budget of
// 80. For integer and real elements, which the tracked workloads read, an
// index held in a register or given as a literal is read without going
// through opI.get's mode switch.

func (g *gen) partEvalI(in *wir.Instr, native string) (evalI, error) {
	a, i1, i2, rank2, unsafe, err := g.partOperands(in, native)
	if err != nil {
		return nil, err
	}
	if rank2 {
		if unsafe {
			return func(fr *frame) int64 { return tensorArg(fr, a).GetI2U(i1.get(fr), i2.get(fr)) }, nil
		}
		if r1, r2 := i1.idx, i2.idx; i1.mode == opRegMode && i2.mode == opRegMode {
			return func(fr *frame) int64 {
				t := tensorArg(fr, a)
				if k, ok := t.Off2(fr.i[r1], fr.i[r2]); ok {
					return t.I[k]
				}
				return t.GetI2(fr.i[r1], fr.i[r2])
			}, nil
		}
		return func(fr *frame) int64 {
			t, i, j := tensorArg(fr, a), i1.get(fr), i2.get(fr)
			if k, ok := t.Off2(i, j); ok {
				return t.I[k]
			}
			return t.GetI2(i, j)
		}, nil
	}
	if unsafe {
		return func(fr *frame) int64 { return tensorArg(fr, a).GetIU(i1.get(fr)) }, nil
	}
	switch i1.mode {
	case opRegMode:
		r := i1.idx
		return func(fr *frame) int64 {
			t := tensorArg(fr, a)
			if k, ok := runtime.Off1(fr.i[r], len(t.I)); ok {
				return t.I[k]
			}
			return t.GetI(fr.i[r])
		}, nil
	case opLitMode:
		i := i1.lit
		return func(fr *frame) int64 {
			t := tensorArg(fr, a)
			if k, ok := runtime.Off1(i, len(t.I)); ok {
				return t.I[k]
			}
			return t.GetI(i)
		}, nil
	}
	ev := i1.ev
	return func(fr *frame) int64 {
		t, i := tensorArg(fr, a), ev(fr)
		if k, ok := runtime.Off1(i, len(t.I)); ok {
			return t.I[k]
		}
		return t.GetI(i)
	}, nil
}

func (g *gen) partEvalF(in *wir.Instr, native string) (evalF, error) {
	a, i1, i2, rank2, unsafe, err := g.partOperands(in, native)
	if err != nil {
		return nil, err
	}
	if rank2 {
		if unsafe {
			return func(fr *frame) float64 { return tensorArg(fr, a).GetF2U(i1.get(fr), i2.get(fr)) }, nil
		}
		if r1, r2 := i1.idx, i2.idx; i1.mode == opRegMode && i2.mode == opRegMode {
			return func(fr *frame) float64 {
				t := tensorArg(fr, a)
				if k, ok := t.Off2(fr.i[r1], fr.i[r2]); ok {
					return t.F[k]
				}
				return t.GetF2(fr.i[r1], fr.i[r2])
			}, nil
		}
		return func(fr *frame) float64 {
			t, i, j := tensorArg(fr, a), i1.get(fr), i2.get(fr)
			if k, ok := t.Off2(i, j); ok {
				return t.F[k]
			}
			return t.GetF2(i, j)
		}, nil
	}
	if unsafe {
		return func(fr *frame) float64 { return tensorArg(fr, a).GetFU(i1.get(fr)) }, nil
	}
	switch i1.mode {
	case opRegMode:
		r := i1.idx
		return func(fr *frame) float64 {
			t := tensorArg(fr, a)
			if k, ok := runtime.Off1(fr.i[r], len(t.F)); ok {
				return t.F[k]
			}
			return t.GetF(fr.i[r])
		}, nil
	case opLitMode:
		i := i1.lit
		return func(fr *frame) float64 {
			t := tensorArg(fr, a)
			if k, ok := runtime.Off1(i, len(t.F)); ok {
				return t.F[k]
			}
			return t.GetF(i)
		}, nil
	}
	ev := i1.ev
	return func(fr *frame) float64 {
		t, i := tensorArg(fr, a), ev(fr)
		if k, ok := runtime.Off1(i, len(t.F)); ok {
			return t.F[k]
		}
		return t.GetF(i)
	}, nil
}

// A tensor of complexes or booleans is indexed by no tracked workload, so
// these two keep the one form that reads its indices through get.

func (g *gen) partEvalC(in *wir.Instr, native string) (evalC, error) {
	a, i1, i2, rank2, unsafe, err := g.partOperands(in, native)
	if err != nil {
		return nil, err
	}
	switch {
	case rank2 && unsafe:
		return func(fr *frame) complex128 { return tensorArg(fr, a).GetC2U(i1.get(fr), i2.get(fr)) }, nil
	case rank2:
		return func(fr *frame) complex128 {
			t, i, j := tensorArg(fr, a), i1.get(fr), i2.get(fr)
			if k, ok := t.Off2(i, j); ok {
				return t.C[k]
			}
			return t.GetC2(i, j)
		}, nil
	case unsafe:
		return func(fr *frame) complex128 { return tensorArg(fr, a).GetCU(i1.get(fr)) }, nil
	}
	return func(fr *frame) complex128 {
		t, i := tensorArg(fr, a), i1.get(fr)
		if k, ok := runtime.Off1(i, len(t.C)); ok {
			return t.C[k]
		}
		return t.GetC(i)
	}, nil
}

func (g *gen) partEvalB(in *wir.Instr, native string) (evalB, error) {
	a, i1, _, _, unsafe, err := g.partOperands(in, native)
	if err != nil {
		return nil, err
	}
	if unsafe {
		return func(fr *frame) bool { return tensorArg(fr, a).GetBU(i1.get(fr)) }, nil
	}
	return func(fr *frame) bool {
		t, i := tensorArg(fr, a), i1.get(fr)
		if k, ok := runtime.Off1(i, len(t.B)); ok {
			return t.B[k]
		}
		return t.GetB(i)
	}, nil
}

func (g *gen) partOperands(in *wir.Instr, native string) (a int, i1, i2 opI, rank2, unsafe bool, err error) {
	r, err := g.regOf(in.Args[0])
	if err != nil {
		return 0, opI{}, opI{}, false, false, err
	}
	if r.kind != runtime.KObj {
		return 0, opI{}, opI{}, false, false,
			fmt.Errorf("codegen %s: fused Part of non-object %s", g.fn.Name, in.Args[0].Name())
	}
	i1, err = g.opIFor(in.Args[1])
	if err != nil {
		return 0, opI{}, opI{}, false, false, err
	}
	rank2 = strings.HasSuffix(native, "2")
	if rank2 {
		i2, err = g.opIFor(in.Args[2])
		if err != nil {
			return 0, opI{}, opI{}, false, false, err
		}
	}
	return r.idx, i1, i2, rank2, strings.Contains(native, "unsafe"), nil
}

// ---------------------------------------------------------------------------
// Root generation

// assignTo compiles "dst = tree(root)" as a single step: the assignment form
// of a generated op, or the node evaluator wrapped in the register write.
func (g *gen) assignTo(dst reg, root *wir.Instr) (step, error) {
	d := dst.idx
	if g.isCall(root) {
		cs, err := g.callSite(root)
		return callAssign[dst.kind](cs, d), err
	}
	native := root.NativeName()
	switch dst.kind {
	case runtime.KI64:
		if op, ok := intArith[native]; ok {
			x, y, err := operands(root, g.opIFor, g.opIFor)
			if err != nil {
				return nil, err
			}
			op, y = literalModulus(native, op, y)
			return op.assign(d, x, y), nil
		}
		ev, err := g.buildEvalI(root)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) { fr.i[d] = ev(fr) }, nil
	case runtime.KR64:
		if op, ok := realArith[native]; ok {
			if ts, err := g.sumTerms(root); ts != nil || err != nil {
				return sumFAssign(d, ts), err
			}
			x, y, err := operands(root, g.opFFor, g.opFFor)
			if err != nil {
				return nil, err
			}
			return op.assign(d, x, y), nil
		}
		ev, err := g.buildEvalF(root)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) { fr.f[d] = ev(fr) }, nil
	case runtime.KC64:
		ev, err := g.buildEvalC(root)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) { fr.c[d] = ev(fr) }, nil
	case runtime.KBool:
		ev, err := g.buildEvalB(root)
		if err != nil {
			return nil, err
		}
		return func(fr *frame) { fr.b[d] = ev(fr) }, nil
	}
	return nil, fmt.Errorf("codegen %s: cannot fuse assignment of kind %v for native %q", g.fn.Name, dst.kind, native)
}

// literalModulus picks a cheaper body for Mod or Quotient by a literal y. A
// positive power of two becomes a mask or an arithmetic shift, exact for the
// language's sign-follows-modulus Mod and floor Quotient on negative
// dividends too; any other modulus that is neither 0 nor -1 can neither
// divide by zero nor overflow, and skips those tests.
func literalModulus(native string, op arith[opI, evalI], y opI) (arith[opI, evalI], opI) {
	if y.mode != opLitMode || native != "mod_int" && native != "quotient_int" {
		return op, y
	}
	mod := native == "mod_int"
	switch m := y.lit; {
	case m > 0 && m&(m-1) == 0:
		if mod {
			return andI, opI{mode: opLitMode, lit: m - 1}
		}
		return shrLitI, opI{mode: opLitMode, lit: int64(bits.TrailingZeros64(uint64(m)))}
	case m != 0 && m != -1:
		if mod {
			return modLitI, y
		}
		return quotLitI, y
	}
	return op, y
}

// stringByteEval compiles the byte read of a string held in an object
// register; like partEvalI, a register or literal index is read in the
// closure body.
func (g *gen) stringByteEval(in *wir.Instr) (evalI, error) {
	r, err := g.regOf(in.Args[0])
	if err != nil {
		return nil, err
	}
	if r.kind != runtime.KObj {
		return nil, fmt.Errorf("codegen %s: byte of non-string %s", g.fn.Name, in.Args[0].Name())
	}
	i1, err := g.opIFor(in.Args[1])
	if err != nil {
		return nil, err
	}
	a := r.idx
	switch i1.mode {
	case opRegMode:
		i := i1.idx
		return func(fr *frame) int64 { return runtime.StringByte(fr.o[a].(string), fr.i[i]) }, nil
	case opLitMode:
		i := i1.lit
		return func(fr *frame) int64 { return runtime.StringByte(fr.o[a].(string), i) }, nil
	}
	ev := i1.ev
	return func(fr *frame) int64 { return runtime.StringByte(fr.o[a].(string), ev(fr)) }, nil
}

// genSetPart is the one builder of a Part store: a single closure against the
// result register d, which holds the tensor (see coalesceObjects). The value
// is evaluated before the tensor is touched, as a sequence of steps would.
// The checked forms store straight into the tensor when it is unshared and
// the index is positive and in range (the test is hand-inlined: see partEvalI),
// and write the register only when the checked mutator copied; the unchecked
// forms differ in skipping the range test and leaving the counts alone.
// Integer and real elements, which the tracked workloads store, have a form
// whose register indices skip opI.get; the other kinds have the one form.
func (g *gen) genSetPart(in *wir.Instr, native string) (step, error) {
	unsafe, rank2 := strings.Contains(native, "unsafe"), strings.HasSuffix(native, "2")
	tr, err := g.regOf(in.Args[0])
	if err != nil {
		return nil, err
	}
	dstR, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	d := dstR.idx
	i1, err := g.opIFor(in.Args[1])
	if err != nil {
		return nil, err
	}
	var st step
	if rank2 {
		i2, err := g.opIFor(in.Args[2])
		if err != nil {
			return nil, err
		}
		regIdx := i1.mode == opRegMode && i2.mode == opRegMode
		r1, r2 := i1.idx, i2.idx
		switch runtime.KindOf(in.Args[3].Type()) {
		case runtime.KI64:
			v, err := g.opIFor(in.Args[3])
			if err != nil {
				return nil, err
			}
			switch {
			case unsafe:
				st = func(fr *frame) {
					x, t := v.get(fr), tensorArg(fr, d)
					if u := t.SetI2U(i1.get(fr), i2.get(fr), x); u != t {
						fr.o[d] = u
					}
				}
			case regIdx:
				st = func(fr *frame) {
					x, t := v.get(fr), tensorArg(fr, d)
					if k, ok := t.Off2(fr.i[r1], fr.i[r2]); ok && !t.IsShared() {
						t.I[k] = x
						return
					}
					fr.o[d] = t.SetI2(fr.i[r1], fr.i[r2], x)
				}
			default:
				st = func(fr *frame) {
					x, t, i, j := v.get(fr), tensorArg(fr, d), i1.get(fr), i2.get(fr)
					if k, ok := t.Off2(i, j); ok && !t.IsShared() {
						t.I[k] = x
						return
					}
					fr.o[d] = t.SetI2(i, j, x)
				}
			}
		case runtime.KR64:
			v, err := g.opFFor(in.Args[3])
			if err != nil {
				return nil, err
			}
			switch {
			case unsafe:
				st = func(fr *frame) {
					x, t := v.get(fr), tensorArg(fr, d)
					if u := t.SetF2U(i1.get(fr), i2.get(fr), x); u != t {
						fr.o[d] = u
					}
				}
			case regIdx:
				st = func(fr *frame) {
					x, t := v.get(fr), tensorArg(fr, d)
					if k, ok := t.Off2(fr.i[r1], fr.i[r2]); ok && !t.IsShared() {
						t.F[k] = x
						return
					}
					fr.o[d] = t.SetF2(fr.i[r1], fr.i[r2], x)
				}
			default:
				st = func(fr *frame) {
					x, t, i, j := v.get(fr), tensorArg(fr, d), i1.get(fr), i2.get(fr)
					if k, ok := t.Off2(i, j); ok && !t.IsShared() {
						t.F[k] = x
						return
					}
					fr.o[d] = t.SetF2(i, j, x)
				}
			}
		case runtime.KC64:
			v, err := g.opCFor(in.Args[3])
			if err != nil {
				return nil, err
			}
			if unsafe {
				st = func(fr *frame) {
					x, t := v.get(fr), tensorArg(fr, d)
					if u := t.SetC2U(i1.get(fr), i2.get(fr), x); u != t {
						fr.o[d] = u
					}
				}
				break
			}
			st = func(fr *frame) {
				x, t, i, j := v.get(fr), tensorArg(fr, d), i1.get(fr), i2.get(fr)
				if k, ok := t.Off2(i, j); ok && !t.IsShared() {
					t.C[k] = x
					return
				}
				fr.o[d] = t.SetC2(i, j, x)
			}
		case runtime.KObj:
			if !packedRows(in.Args[0].Type(), in.Args[3].Type()) {
				return nil, fmt.Errorf("codegen %s: rank-2 setpart of kind %v", g.fn.Name, runtime.KindOf(in.Args[3].Type()))
			}
			v, err := g.regOf(in.Args[3])
			if err != nil {
				return nil, err
			}
			vi := v.idx
			if unsafe {
				st = func(fr *frame) {
					t := tensorArg(fr, d)
					if u := t.SetRow2U(i1.get(fr), i2.get(fr), tensorArg(fr, vi)); u != t {
						fr.o[d] = u
					}
				}
				break
			}
			st = func(fr *frame) { fr.o[d] = tensorArg(fr, d).SetRow2(i1.get(fr), i2.get(fr), tensorArg(fr, vi)) }
		default:
			return nil, fmt.Errorf("codegen %s: rank-2 setpart of kind %v", g.fn.Name, runtime.KindOf(in.Args[3].Type()))
		}
		return g.storeInPlace(dstR, tr, st), nil
	}
	if packedRows(in.Args[0].Type(), in.Args[2].Type()) {
		v, err := g.regOf(in.Args[2])
		if err != nil {
			return nil, err
		}
		return g.storeInPlace(dstR, tr, rowStore(v.idx, d, i1, unsafe)), nil
	}
	regIdx, r1 := i1.mode == opRegMode, i1.idx
	switch runtime.KindOf(in.Args[2].Type()) {
	case runtime.KI64:
		v, err := g.opIFor(in.Args[2])
		if err != nil {
			return nil, err
		}
		switch {
		case unsafe:
			st = func(fr *frame) {
				x, t := v.get(fr), tensorArg(fr, d)
				if u := t.SetIU(i1.get(fr), x); u != t {
					fr.o[d] = u
				}
			}
		case regIdx:
			st = func(fr *frame) {
				x, t := v.get(fr), tensorArg(fr, d)
				if k, ok := runtime.Off1(fr.i[r1], len(t.I)); ok && !t.IsShared() {
					t.I[k] = x
					return
				}
				fr.o[d] = t.SetI(fr.i[r1], x)
			}
		default:
			st = func(fr *frame) {
				x, t, i := v.get(fr), tensorArg(fr, d), i1.get(fr)
				if k, ok := runtime.Off1(i, len(t.I)); ok && !t.IsShared() {
					t.I[k] = x
					return
				}
				fr.o[d] = t.SetI(i, x)
			}
		}
	case runtime.KR64:
		v, err := g.opFFor(in.Args[2])
		if err != nil {
			return nil, err
		}
		switch {
		case unsafe:
			st = func(fr *frame) {
				x, t := v.get(fr), tensorArg(fr, d)
				if u := t.SetFU(i1.get(fr), x); u != t {
					fr.o[d] = u
				}
			}
		case regIdx:
			st = func(fr *frame) {
				x, t := v.get(fr), tensorArg(fr, d)
				if k, ok := runtime.Off1(fr.i[r1], len(t.F)); ok && !t.IsShared() {
					t.F[k] = x
					return
				}
				fr.o[d] = t.SetF(fr.i[r1], x)
			}
		default:
			st = func(fr *frame) {
				x, t, i := v.get(fr), tensorArg(fr, d), i1.get(fr)
				if k, ok := runtime.Off1(i, len(t.F)); ok && !t.IsShared() {
					t.F[k] = x
					return
				}
				fr.o[d] = t.SetF(i, x)
			}
		}
	case runtime.KC64:
		v, err := g.opCFor(in.Args[2])
		if err != nil {
			return nil, err
		}
		if unsafe {
			st = func(fr *frame) {
				x, t := v.get(fr), tensorArg(fr, d)
				if u := t.SetCU(i1.get(fr), x); u != t {
					fr.o[d] = u
				}
			}
			break
		}
		st = func(fr *frame) {
			x, t, i := v.get(fr), tensorArg(fr, d), i1.get(fr)
			if k, ok := runtime.Off1(i, len(t.C)); ok && !t.IsShared() {
				t.C[k] = x
				return
			}
			fr.o[d] = t.SetC(i, x)
		}
	case runtime.KBool:
		v, err := g.opBFor(in.Args[2])
		if err != nil {
			return nil, err
		}
		st = func(fr *frame) {
			x, t, i := v.get(fr), tensorArg(fr, d), i1.get(fr)
			if k, ok := runtime.Off1(i, len(t.B)); ok && !t.IsShared() {
				t.B[k] = x
				return
			}
			fr.o[d] = t.SetB(i, x)
		}
	case runtime.KObj:
		v, err := g.regOf(in.Args[2])
		if err != nil {
			return nil, err
		}
		vi := v.idx
		if unsafe {
			st = func(fr *frame) {
				t := tensorArg(fr, d)
				if u := t.SetOU(i1.get(fr), fr.o[vi]); u != t {
					fr.o[d] = u
				}
			}
			break
		}
		st = func(fr *frame) {
			t, i := tensorArg(fr, d), i1.get(fr)
			if k, ok := runtime.Off1(i, len(t.O)); ok && !t.IsShared() {
				t.O[k] = fr.o[vi]
				return
			}
			fr.o[d] = t.SetO(i, fr.o[vi])
		}
	default:
		return nil, fmt.Errorf("codegen %s: setpart of kind %v", g.fn.Name, runtime.KindOf(in.Args[2].Type()))
	}
	return g.storeInPlace(dstR, tr, st), nil
}

// rowStore is the store of a row into a packed array (packedRows): the
// runtime's SetRow copies the row in. It resolves the index, fixes the shape
// of a fresh list at its first row, throws on a ragged row (the interpreter
// builds those, F2) and copies a shared array first.
func rowStore(vi, d int, i1 opI, unsafe bool) step {
	set := (*runtime.Tensor).SetRow
	if unsafe {
		set = (*runtime.Tensor).SetRowU
	}
	return func(fr *frame) { fr.o[d] = set(tensorArg(fr, d), i1.get(fr), tensorArg(fr, vi)) }
}

// storeInPlace finishes a Part store compiled against register d, which
// holds the tensor: when the operand lives elsewhere (a constant) it is
// moved into d first.
func (g *gen) storeInPlace(dst, src reg, st step) step {
	if dst == src {
		return st
	}
	mv := g.moveStep(dst, src)
	return func(fr *frame) {
		mv(fr)
		st(fr)
	}
}
