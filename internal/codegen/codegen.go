// Package codegen implements the compiler's backends (paper §4.6). The
// default backend compiles TWIR to closure-threaded native Go code: every
// instruction becomes a Go closure over unboxed register files (int64,
// float64, complex128, bool, and object registers), basic blocks become
// straight-line closure arrays, and terminators return the next block
// index. This plays the architectural role of the paper's LLVM JIT — typed,
// unboxed, register-based code with real inlining — against the baseline's
// boxed stack bytecode (see DESIGN.md for the substitution rationale).
// Additional backends (C source, WVM) live in their own files behind the
// same Backend entry points.
package codegen

import (
	"fmt"
	"sync"
	"sync/atomic"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// RT is the runtime context of one invocation of compiled code, threaded
// through every frame: the engine, the parallel width, and the invocation's
// activation records. One RT serves one invocation at a time, so concurrent
// callers never share one; the wrapper in internal/core takes it from
// AcquireRT and gives it back with Release, frame stack attached. The zero
// value is a valid context with no engine.
type RT struct {
	Engine runtime.Engine
	// Workers is the parallel width for data-parallel natives in this
	// call: 0 means the process default (runtime.SetMaxWorkers, falling
	// back to GOMAXPROCS), 1 forces serial execution. Set from the
	// Parallelism compile option.
	Workers int

	// frames holds the activation records by call depth; depth of them are
	// in use. A record outlives the call that used it and is re-sliced for
	// the next function entered at its depth, so a call allocates only when
	// that function needs more registers of some class than any before it
	// there. Records are separate allocations because live frames hold
	// pointers to theirs while the slice grows.
	frames []*frame
	depth  int
}

// Aborted polls the abort flag; standalone code (nil engine) never aborts.
func (rt *RT) Aborted() bool { return rt.Engine != nil && rt.Engine.Aborted() }

// maxCallDepth bounds compiled call nesting. One level costs 216 bytes of Go
// stack (exec 72 + the direct-call closure 144; 264 through the registry)
// and the Go runtime kills the process when a stack must grow past 512 MB,
// 2.0 to 2.5 million levels; a million keeps a 2x margin.
const maxCallDepth = 1 << 20

var rtPool = sync.Pool{New: func() any { return new(RT) }}

// AcquireRT returns a pooled runtime context for one invocation.
func AcquireRT(eng runtime.Engine, workers int) *RT {
	rt := rtPool.Get().(*RT)
	rt.Engine, rt.Workers = eng, workers
	return rt
}

// Release returns rt to the pool; run it deferred. An exception unwinds past
// every leave between the throw and here, and the records it skipped are
// exactly those below depth: their object registers are cleared so that a
// pooled stack pins no tensor.
func (rt *RT) Release() {
	for _, fr := range rt.frames[:rt.depth] {
		clear(fr.o)
	}
	rt.depth = 0
	rt.Engine = nil
	rtPool.Put(rt)
}

// enter takes the activation record at the current depth for a call of cf:
// its register files re-sliced to cf's counts, constants loaded. Scalar
// classes cf does not use are left as the last user had them; the object file
// is always cf's exact window, which is what leave and Release clear.
func (rt *RT) enter(cf *CFunc) *frame {
	if rt.depth == len(rt.frames) {
		if rt.depth >= maxCallDepth {
			runtime.Throw(runtime.ExcDepth, "compiled call depth of %d exceeded", maxCallDepth)
		}
		rt.frames = append(rt.frames, &frame{rt: rt})
	}
	fr := rt.frames[rt.depth]
	rt.depth++
	if cf.nI > 0 {
		fr.i = resized(fr.i, cf.nI)
	}
	if cf.nF > 0 {
		fr.f = resized(fr.f, cf.nF)
	}
	if cf.nC > 0 {
		fr.c = resized(fr.c, cf.nC)
	}
	if cf.nB > 0 {
		fr.b = resized(fr.b, cf.nB)
	}
	fr.o = resized(fr.o, cf.nO)
	for _, ci := range cf.constInit {
		if cf.naiveConsts {
			if t, ok := ci.o.(*runtime.Tensor); ok {
				fr.o[ci.r.idx] = t.Copy()
				continue
			}
		}
		switch ci.r.kind {
		case runtime.KI64:
			fr.i[ci.r.idx] = ci.i
		case runtime.KR64:
			fr.f[ci.r.idx] = ci.f
		case runtime.KC64:
			fr.c[ci.r.idx] = ci.c
		case runtime.KBool:
			fr.b[ci.r.idx] = ci.b
		case runtime.KObj:
			fr.o[ci.r.idx] = ci.o
		}
	}
	return fr
}

// resized is file re-sliced to n registers, reallocated only when its
// capacity is short (whatever it held is dead: registers are written before
// they are read).
func resized[T any](file []T, n int) []T {
	if n > cap(file) {
		return make([]T, n)
	}
	return file[:n]
}

// leave returns the top record. Object registers may pin big tensors, so
// they are cleared now, not when the record is next used.
func (rt *RT) leave(fr *frame) {
	clear(fr.o)
	rt.depth--
}

// reg addresses one register in a class.
type reg struct {
	kind runtime.Kind
	idx  int
}

// frame is the activation record: unboxed register files.
type frame struct {
	i  []int64
	f  []float64
	c  []complex128
	b  []bool
	o  []any
	rt *RT
}

type step func(fr *frame)
type term func(fr *frame) int

type cblock struct {
	steps []step
	term  term
}

// CFunc is one compiled function.
type CFunc struct {
	Name               string
	nI, nF, nC, nB, nO int
	constInit          []constInit
	params             []reg
	retReg             reg
	retKind            runtime.Kind
	hasRet             bool
	blocks             []cblock

	// naiveConsts rebuilds tensor constants per call (the §6 PrimeQ
	// constant-array ablation).
	naiveConsts bool

	// Profiling state (ProfileLevel > 0): one shared atomic execution
	// counter per basic block, incremented by a counter step prepended to
	// the block's closure array. Loop headers (targets of back edges) are
	// flagged so the hot-block table can report trip counts.
	profCounts []atomic.Uint64
	profLabels []string
	profLoop   []bool
}

type constInit struct {
	r reg
	i int64
	f float64
	c complex128
	b bool
	o any
}

// FuncVal is a first-class function value: a compiled function plus its
// captured environment (closure conversion, §4.2).
type FuncVal struct {
	Fn   *CFunc
	Caps []any
}

// Program is a fully compiled module.
type Program struct {
	Funcs  []*CFunc
	Main   *CFunc
	Module *wir.Module
	byName map[string]*CFunc
	// Parallelism is the worker count baked in from CompileOptions; the
	// invocation wrapper copies it into each call's RT.
	Parallelism int
}

// FuncByName returns a compiled function.
func (p *Program) FuncByName(name string) *CFunc {
	return p.byName[name]
}

// CompileOptions tunes code generation; NaiveConstants disables constant
// interning so embedded constant arrays are rebuilt per call — the §6
// PrimeQ ablation ("Due to non-optimal handling of constant arrays, we
// observe a 1.5x performance degradation").
type CompileOptions struct {
	NaiveConstants bool
	// Parallelism sets the worker count for data-parallel natives (tensor
	// element-wise kernels, banded Dot, blur, histogram) in code compiled
	// with these options: 0 = process default, 1 = serial.
	Parallelism int
	// FuseLevel selects superinstruction fusion: FuseOff emits one closure
	// per instruction (the differential-testing baseline and the baseline
	// tier), and every other value, the zero value included, means FuseFull:
	// scalar def-use chains, compares with their branch, Part load/store
	// trees, and phi-edge moves each fuse into a single closure.
	FuseLevel int
	// ProfileLevel > 0 instruments every basic block with an atomic
	// execution counter (ISSUE 4): exact per-block and loop-trip counts,
	// dumpable as a hot-block table (CFunc.ProfileTable). Profiling
	// disables the fusion shortcuts that skip block dispatch (edge
	// threading, whole-loop rotation) so the counts stay exact; in-block
	// superinstruction fusion is unaffected.
	ProfileLevel int
}

// Fusion levels for CompileOptions.FuseLevel. The zero value means "not
// set" and resolves to FuseFull so existing call sites get the optimised
// backend.
const (
	FuseOff  = -1
	FuseFull = 2
)

// Compile generates closure-threaded code for a typed module.
func Compile(mod *wir.Module) (*Program, error) {
	return CompileWithOptions(mod, CompileOptions{})
}

// CompileWithOptions generates code with explicit backend options.
func CompileWithOptions(mod *wir.Module, opts CompileOptions) (*Program, error) {
	if !mod.Typed {
		return nil, fmt.Errorf("codegen: module is untyped; run inference first (§4.6: code generation only operates on fully typed TWIR)")
	}
	p := &Program{Module: mod, byName: map[string]*CFunc{}, Parallelism: opts.Parallelism}
	// Create shells first so direct calls and closures can reference them.
	for _, f := range mod.Funcs {
		cf := &CFunc{Name: f.Name, naiveConsts: opts.NaiveConstants}
		p.Funcs = append(p.Funcs, cf)
		p.byName[f.Name] = cf
	}
	for i, f := range mod.Funcs {
		g := &gen{prog: p, fn: f, cf: p.Funcs[i], regs: map[wir.Value]reg{}, fuse: opts.FuseLevel != FuseOff, profile: opts.ProfileLevel > 0}
		if err := g.generate(); err != nil {
			return nil, err
		}
	}
	p.Main = p.byName["Main"]
	if p.Main == nil && len(p.Funcs) > 0 {
		p.Main = p.Funcs[0]
	}
	return p, nil
}

// exec runs the function body on a prepared frame.
func (cf *CFunc) exec(fr *frame) {
	blk := 0
	for blk >= 0 {
		b := &cf.blocks[blk]
		for _, st := range b.steps {
			st(fr)
		}
		blk = b.term(fr)
	}
}

// CallValues invokes the compiled function with unboxed arguments (int64,
// float64, complex128, bool, string, expr.Expr, *runtime.Tensor, *FuncVal)
// and returns the unboxed result.
func (cf *CFunc) CallValues(rt *RT, args ...any) any {
	if len(args) != len(cf.params) {
		runtime.Throw(runtime.ExcType, "%s: expected %d arguments, got %d", cf.Name, len(cf.params), len(args))
	}
	fr := rt.enter(cf)
	for i, a := range args {
		writeReg(fr, cf.params[i], a)
	}
	cf.exec(fr)
	var res any
	if cf.hasRet {
		res = readReg(fr, cf.retReg)
	}
	rt.leave(fr)
	return res
}

func writeReg(fr *frame, r reg, v any) {
	switch r.kind {
	case runtime.KI64:
		fr.i[r.idx] = v.(int64)
	case runtime.KR64:
		fr.f[r.idx] = v.(float64)
	case runtime.KC64:
		fr.c[r.idx] = v.(complex128)
	case runtime.KBool:
		if v == nil {
			fr.b[r.idx] = false
			return
		}
		fr.b[r.idx] = v.(bool)
	case runtime.KObj:
		fr.o[r.idx] = v
	}
}

func readReg(fr *frame, r reg) any {
	switch r.kind {
	case runtime.KI64:
		return fr.i[r.idx]
	case runtime.KR64:
		return fr.f[r.idx]
	case runtime.KC64:
		return fr.c[r.idx]
	case runtime.KBool:
		return fr.b[r.idx]
	case runtime.KObj:
		return fr.o[r.idx]
	}
	return nil
}

// gen compiles one function.
type gen struct {
	prog *Program
	fn   *wir.Function
	cf   *CFunc
	regs map[wir.Value]reg
	// fuse is set unless CompileOptions.FuseLevel is FuseOff.
	fuse bool
	// fused marks instructions folded into their single consumer (a
	// superinstruction: the chain becomes one closure; fused instructions
	// get no step and no register of their own).
	fused map[*wir.Instr]bool
	// abortFold is set while generating a block whose leading abort check
	// folds into the fused conditional-branch closure.
	abortFold bool
	// profile enables per-block execution counters (CompileOptions.
	// ProfileLevel > 0) and disables dispatch-skipping fusion shortcuts.
	profile bool
	// uses counts the operand references to each value; see useCount.
	uses map[wir.Value]int
}

// useCount returns the number of operand references to v. The references
// are counted on first demand: unfused code over scalars, which is all the
// baseline tier generates, never asks.
func (g *gen) useCount(v wir.Value) int {
	if g.uses == nil {
		g.uses = map[wir.Value]int{}
		for _, b := range g.fn.Blocks {
			for _, phi := range b.Phis {
				for _, a := range phi.Args {
					g.uses[a]++
				}
			}
			for _, in := range b.Instrs {
				for _, a := range in.Args {
					g.uses[a]++
				}
			}
		}
	}
	return g.uses[v]
}

// alloc assigns a register in v's class.
func (g *gen) alloc(kind runtime.Kind) reg {
	var idx int
	switch kind {
	case runtime.KI64:
		idx = g.cf.nI
		g.cf.nI++
	case runtime.KR64:
		idx = g.cf.nF
		g.cf.nF++
	case runtime.KC64:
		idx = g.cf.nC
		g.cf.nC++
	case runtime.KBool:
		idx = g.cf.nB
		g.cf.nB++
	case runtime.KObj:
		idx = g.cf.nO
		g.cf.nO++
	}
	return reg{kind: kind, idx: idx}
}

// regOf returns (allocating if needed) the register for a value.
func (g *gen) regOf(v wir.Value) (reg, error) {
	if r, ok := g.regs[v]; ok {
		return r, nil
	}
	t := v.Type()
	if t == nil {
		return reg{}, fmt.Errorf("codegen %s: untyped value %s", g.fn.Name, v.Name())
	}
	r := g.alloc(runtime.KindOf(t))
	g.regs[v] = r
	if c, ok := v.(*wir.Const); ok {
		ci, err := g.constFor(c, r)
		if err != nil {
			return reg{}, err
		}
		g.cf.constInit = append(g.cf.constInit, ci)
	}
	if fref, ok := v.(*wir.FuncRef); ok {
		target := g.prog.byName[fref.Fn.Name]
		g.cf.constInit = append(g.cf.constInit, constInit{r: r, o: &FuncVal{Fn: target}})
	}
	return r, nil
}

// constFor materialises a constant into a register initialiser.
func (g *gen) constFor(c *wir.Const, r reg) (constInit, error) {
	ci := constInit{r: r}
	switch r.kind {
	case runtime.KI64:
		i, ok := c.Expr.(*expr.Integer)
		if !ok || !i.IsMachine() {
			return ci, fmt.Errorf("codegen: bad integer constant %s", expr.InputForm(c.Expr))
		}
		ci.i = i.Int64()
	case runtime.KR64:
		switch x := c.Expr.(type) {
		case *expr.Real:
			ci.f = x.V
		case *expr.Integer:
			ci.f = float64(x.Int64())
		case *expr.Rational:
			f, _ := x.V.Float64()
			ci.f = f
		default:
			return ci, fmt.Errorf("codegen: bad real constant %s", expr.InputForm(c.Expr))
		}
	case runtime.KC64:
		switch x := c.Expr.(type) {
		case *expr.Complex:
			ci.c = complex(x.Re, x.Im)
		case *expr.Real:
			ci.c = complex(x.V, 0)
		case *expr.Integer:
			ci.c = complex(float64(x.Int64()), 0)
		default:
			return ci, fmt.Errorf("codegen: bad complex constant %s", expr.InputForm(c.Expr))
		}
	case runtime.KBool:
		if b, isBool := expr.TruthValue(c.Expr); isBool {
			ci.b = b
		} else if expr.SameQ(c.Expr, expr.SymNull) {
			ci.b = false
		} else {
			return ci, fmt.Errorf("codegen: bad boolean constant %s", expr.InputForm(c.Expr))
		}
	case runtime.KObj:
		o, err := constObject(c)
		if err != nil {
			return ci, err
		}
		ci.o = o
	}
	return ci, nil
}

// constObject builds object constants: strings, expressions, and constant
// arrays (§6 PrimeQ's seed table becomes one shared tensor marked Shared so
// compiled code copies before mutating it).
func constObject(c *wir.Const) (any, error) {
	switch c.Ty.(type) {
	case *types.Compound:
		// A one-armed statement If merges Null with the other branch's
		// type; the value is dead by construction (DCE removes it at -O1,
		// but -O0 still materialises constants eagerly), so any placeholder
		// serves.
		if expr.SameQ(c.Expr, expr.SymNull) {
			return (*runtime.Tensor)(nil), nil
		}
		v, ok := runtime.Unbox(c.Expr, c.Ty)
		if !ok {
			return nil, fmt.Errorf("codegen: cannot build constant array %s : %s",
				expr.InputForm(c.Expr), c.Ty)
		}
		return v, nil
	}
	if s, ok := c.Expr.(*expr.String); ok && c.Ty == types.TString {
		return s.V, nil
	}
	// Expression constants (symbolic values, F8).
	return c.Expr, nil
}

// generate compiles the function body.
func (g *gen) generate() error {
	for _, p := range g.fn.Params {
		r, err := g.regOf(p)
		if err != nil {
			return err
		}
		g.cf.params = append(g.cf.params, r)
	}
	g.cf.retKind = runtime.KindOf(g.fn.RetTy)
	if g.fn.RetTy != types.TVoid {
		g.cf.retReg = g.alloc(g.cf.retKind)
		g.cf.hasRet = true
	}
	blockIdx := map[*wir.Block]int{}
	for i, b := range g.fn.Blocks {
		blockIdx[b] = i
	}
	if err := g.coalesceObjects(); err != nil {
		return err
	}
	if err := g.markFused(); err != nil {
		return err
	}
	if g.profile {
		g.cf.profCounts = make([]atomic.Uint64, len(g.fn.Blocks))
		g.cf.profLabels = make([]string, len(g.fn.Blocks))
		g.cf.profLoop = make([]bool, len(g.fn.Blocks))
	}
	for bi, b := range g.fn.Blocks {
		var cb cblock
		g.abortFold = g.canFoldAbort(b)
		if g.profile {
			g.cf.profLabels[bi] = b.Label
			ctr := &g.cf.profCounts[bi]
			cb.steps = append(cb.steps, func(fr *frame) { ctr.Add(1) })
			// A terminator edge to an earlier (or the same) block is a back
			// edge; its target is a loop header.
			if t := b.Term(); t != nil {
				for _, tgt := range t.Targets {
					if ti, ok := blockIdx[tgt]; ok && ti <= bi {
						g.cf.profLoop[ti] = true
					}
				}
			}
		}
		for i, in := range b.Instrs {
			if i == 0 && g.abortFold {
				continue // polled inside the fused branch closure instead
			}
			if in.IsTerminator() {
				t, err := g.genTerminator(b, in, blockIdx)
				if err != nil {
					return err
				}
				cb.term = t
				break
			}
			if g.fused[in] {
				continue // folded into its consumer superinstruction
			}
			st, err := g.genInstr(in)
			if err != nil {
				return err
			}
			if st != nil {
				cb.steps = append(cb.steps, st)
			}
		}
		if cb.term == nil {
			return fmt.Errorf("codegen %s: block %s unterminated", g.fn.Name, b.Label)
		}
		g.cf.blocks = append(g.cf.blocks, cb)
	}
	return nil
}

// canFoldAbort reports whether b's leading abort check can fold into its
// fused conditional-branch closure. That needs every other non-terminator
// instruction in the block fused too, so the branch closure runs exactly
// once per block entry and the poll frequency is unchanged — the abort
// contract (one poll per loop iteration) survives superinstruction fusion.
func (g *gen) canFoldAbort(b *wir.Block) bool {
	if len(b.Instrs) < 2 || b.Instrs[0].Op != wir.OpAbortCheck {
		return false
	}
	t := b.Term()
	if t == nil || t.Op != wir.OpCondBranch || len(t.Args) == 0 {
		return false
	}
	if cmp, ok := t.Args[0].(*wir.Instr); !ok || !g.fused[cmp] {
		return false
	}
	for _, in := range b.Instrs[1:] {
		if !in.IsTerminator() && !g.fused[in] {
			return false
		}
	}
	return true
}

// genTerminator compiles a block terminator, including the parallel phi
// moves for each outgoing edge.
func (g *gen) genTerminator(b *wir.Block, in *wir.Instr, blockIdx map[*wir.Block]int) (term, error) {
	switch in.Op {
	case wir.OpReturn:
		if len(in.Args) == 1 && g.cf.hasRet {
			if a, ok := in.Args[0].(*wir.Instr); ok && g.fused[a] {
				st, err := g.assignTo(g.cf.retReg, a)
				if err != nil {
					return nil, err
				}
				return func(fr *frame) int {
					st(fr)
					return -1
				}, nil
			}
			src, err := g.regOf(in.Args[0])
			if err != nil {
				return nil, err
			}
			dst := g.cf.retReg
			mv := g.moveStep(dst, src)
			return func(fr *frame) int {
				mv(fr)
				return -1
			}, nil
		}
		return func(fr *frame) int { return -1 }, nil
	case wir.OpBranch:
		target := in.Targets[0]
		idx := blockIdx[target]
		sts, err := g.phiMoveSteps(b, target)
		if err != nil {
			return nil, err
		}
		// Unroll small move lists into the terminator closure itself: loop
		// latches are the hottest edges in the program and this removes the
		// composed-moves wrapper call from every iteration.
		switch len(sts) {
		case 0:
			return func(fr *frame) int { return idx }, nil
		case 1:
			m0 := sts[0]
			return func(fr *frame) int {
				m0(fr)
				return idx
			}, nil
		case 2:
			m0, m1 := sts[0], sts[1]
			return func(fr *frame) int {
				m0(fr)
				m1(fr)
				return idx
			}, nil
		case 3:
			m0, m1, m2 := sts[0], sts[1], sts[2]
			return func(fr *frame) int {
				m0(fr)
				m1(fr)
				m2(fr)
				return idx
			}, nil
		}
		return func(fr *frame) int {
			for _, m := range sts {
				m(fr)
			}
			return idx
		}, nil
	case wir.OpCondBranch:
		if cmp, ok := in.Args[0].(*wir.Instr); ok && g.fused[cmp] {
			return g.genFusedCondBranch(b, in, cmp, blockIdx)
		}
		condReg, err := g.regOf(in.Args[0])
		if err != nil {
			return nil, err
		}
		if condReg.kind != runtime.KBool {
			return nil, fmt.Errorf("codegen %s: condition in %v register", g.fn.Name, condReg.kind)
		}
		ci := condReg.idx
		thenIdx := blockIdx[in.Targets[0]]
		elseIdx := blockIdx[in.Targets[1]]
		thenMoves, err := g.phiMoves(b, in.Targets[0])
		if err != nil {
			return nil, err
		}
		elseMoves, err := g.phiMoves(b, in.Targets[1])
		if err != nil {
			return nil, err
		}
		return func(fr *frame) int {
			if fr.b[ci] {
				if thenMoves != nil {
					thenMoves(fr)
				}
				return thenIdx
			}
			if elseMoves != nil {
				elseMoves(fr)
			}
			return elseIdx
		}, nil
	}
	return nil, fmt.Errorf("codegen %s: bad terminator", g.fn.Name)
}

// phiMoves builds the parallel copy for the edge from→to as a single step
// (nil when the edge moves nothing).
func (g *gen) phiMoves(from, to *wir.Block) (step, error) {
	steps, err := g.phiMoveSteps(from, to)
	if err != nil {
		return nil, err
	}
	return composeSteps(steps), nil
}

// composeSteps folds a step list into one step (nil for an empty list).
func composeSteps(sts []step) step {
	switch len(sts) {
	case 0:
		return nil
	case 1:
		return sts[0]
	case 2:
		m0, m1 := sts[0], sts[1]
		return func(fr *frame) {
			m0(fr)
			m1(fr)
		}
	}
	all := sts
	return func(fr *frame) {
		for _, s := range all {
			s(fr)
		}
	}
}

// blockFullyFused reports whether b contributes no steps: every
// non-terminator instruction is folded into a superinstruction (a leading
// abort check folded into the branch closure counts).
func (g *gen) blockFullyFused(b *wir.Block) bool {
	// Under profiling every block carries its counter step, so no block is
	// ever "fully fused"; this keeps whole-loop rotation (selfLoopTerm) off
	// and the per-block counts exact.
	if g.profile {
		return false
	}
	for i, in := range b.Instrs {
		if in.IsTerminator() {
			continue
		}
		if i == 0 && g.abortFold {
			continue
		}
		if !g.fused[in] {
			return false
		}
	}
	return true
}

// threadEdge resolves the edge b→t for a fused conditional branch,
// threading through t when t's whole body is fused into its outgoing
// unconditional edge: the branch closure then performs both parallel moves
// and lands directly at t's successor, saving a trip through the block
// dispatch loop. On a While latch this rotates the loop so the branch
// closure returns to its own block index.
func (g *gen) threadEdge(b, t *wir.Block, blockIdx map[*wir.Block]int) ([]step, int, error) {
	sts, err := g.phiMoveSteps(b, t)
	if err != nil {
		return nil, 0, err
	}
	// Profiling needs every block entry to pass through the dispatch loop
	// (where the counter step runs), so edge threading is disabled.
	if !g.fuse || g.profile {
		return sts, blockIdx[t], nil
	}
	tt := t.Term()
	if tt == nil || tt.Op != wir.OpBranch {
		return sts, blockIdx[t], nil
	}
	for _, in := range t.Instrs {
		if !in.IsTerminator() && !g.fused[in] {
			return sts, blockIdx[t], nil
		}
	}
	sts2, err := g.phiMoveSteps(t, tt.Targets[0])
	if err != nil {
		return nil, 0, err
	}
	return append(sts, sts2...), blockIdx[tt.Targets[0]], nil
}

// selfLoopTerm compiles a fused conditional branch whose taken edge loops
// straight back to its own fully-fused block: the whole loop runs inside
// one closure, preserving the per-iteration abort poll.
func selfLoopTerm(poll bool, cond func(*frame) bool, body []step, exitMoves step, exitIdx int) term {
	exit := func(fr *frame) int {
		if exitMoves != nil {
			exitMoves(fr)
		}
		return exitIdx
	}
	switch len(body) {
	case 0:
		return func(fr *frame) int {
			for {
				if poll && fr.rt.Aborted() {
					runtime.Throw(runtime.ExcAbort, "aborted")
				}
				if !cond(fr) {
					return exit(fr)
				}
			}
		}
	case 1:
		m0 := body[0]
		return func(fr *frame) int {
			for {
				if poll && fr.rt.Aborted() {
					runtime.Throw(runtime.ExcAbort, "aborted")
				}
				if !cond(fr) {
					return exit(fr)
				}
				m0(fr)
			}
		}
	case 2:
		m0, m1 := body[0], body[1]
		return func(fr *frame) int {
			for {
				if poll && fr.rt.Aborted() {
					runtime.Throw(runtime.ExcAbort, "aborted")
				}
				if !cond(fr) {
					return exit(fr)
				}
				m0(fr)
				m1(fr)
			}
		}
	case 3:
		m0, m1, m2 := body[0], body[1], body[2]
		return func(fr *frame) int {
			for {
				if poll && fr.rt.Aborted() {
					runtime.Throw(runtime.ExcAbort, "aborted")
				}
				if !cond(fr) {
					return exit(fr)
				}
				m0(fr)
				m1(fr)
				m2(fr)
			}
		}
	}
	all := body
	return func(fr *frame) int {
		for {
			if poll && fr.rt.Aborted() {
				runtime.Throw(runtime.ExcAbort, "aborted")
			}
			if !cond(fr) {
				return exit(fr)
			}
			for _, s := range all {
				s(fr)
			}
		}
	}
}

// phiMoveSteps builds the parallel copy for the edge from→to, sequentialised
// with temporary registers to break cycles.
func (g *gen) phiMoveSteps(from, to *wir.Block) ([]step, error) {
	if len(to.Phis) == 0 {
		return nil, nil
	}
	predIdx := -1
	for i, p := range to.Preds {
		if p == from {
			predIdx = i
			break
		}
	}
	if predIdx == -1 {
		return nil, fmt.Errorf("codegen %s: edge %s->%s not in preds", g.fn.Name, from.Label, to.Label)
	}
	// A move is either a plain register copy or (with full fusion) a
	// prebuilt evaluation of a fused expression tree straight into the phi
	// register; srcs lists every register the move reads so the
	// sequentialiser can order around it.
	type move struct {
		dst, src reg
		ev       step
		ain      *wir.Instr // fused tree behind ev, for cycle re-rooting
		srcs     []reg
	}
	var moves []move
	for _, phi := range to.Phis {
		if predIdx >= len(phi.Args) {
			return nil, fmt.Errorf("codegen %s: phi arity mismatch in %s", g.fn.Name, to.Label)
		}
		dst, err := g.regOf(phi)
		if err != nil {
			return nil, err
		}
		arg := phi.Args[predIdx]
		if ain, ok := arg.(*wir.Instr); ok && g.fused[ain] {
			st, err := g.assignTo(dst, ain)
			if err != nil {
				return nil, err
			}
			var leaves []reg
			if err := g.evalLeafRegs(ain, &leaves); err != nil {
				return nil, err
			}
			moves = append(moves, move{dst: dst, ev: st, ain: ain, srcs: leaves})
			continue
		}
		src, err := g.regOf(arg)
		if err != nil {
			return nil, err
		}
		if dst != src {
			moves = append(moves, move{dst: dst, src: src, srcs: []reg{src}})
		}
	}
	if len(moves) == 0 {
		return nil, nil
	}
	// Sequentialise: emit moves whose destination is not a pending source;
	// break cycles through temporary registers. The emission rule
	// guarantees that whenever we stall, every pending move's sources
	// still hold their pre-edge values — so a cycle member may be routed
	// through a temporary (plain copy) or evaluated into one right now
	// (fused tree) without changing what the remaining moves read.
	var steps []step
	pending := moves
	for len(pending) > 0 {
		emitted := false
		for i, m := range pending {
			conflict := false
			for j, other := range pending {
				if j == i {
					continue
				}
				for _, s := range other.srcs {
					if s == m.dst {
						conflict = true
						break
					}
				}
				if conflict {
					break
				}
			}
			if !conflict {
				if m.ev != nil {
					steps = append(steps, m.ev)
				} else {
					steps = append(steps, g.moveStep(m.dst, m.src))
				}
				pending = append(pending[:i], pending[i+1:]...)
				emitted = true
				break
			}
		}
		if emitted {
			continue
		}
		// Cycle: prefer routing a plain move through a fresh temporary (one
		// extra copy); failing that, evaluate a fused tree into a temporary
		// now — its leaves are untouched at this point — and demote it to a
		// plain copy out of the temporary. Each break gets its own register
		// so overlapping breaks in a tangled move graph can never clobber
		// one another's saved value.
		mi := -1
		for i, m := range pending {
			if m.ev == nil {
				mi = i
				break
			}
		}
		if mi >= 0 {
			m := pending[mi]
			sc := g.alloc(m.src.kind)
			steps = append(steps, g.moveStep(sc, m.src))
			pending[mi].src = sc
			pending[mi].srcs = []reg{sc}
			continue
		}
		m := pending[0]
		sc := g.alloc(m.dst.kind)
		ev, err := g.assignTo(sc, m.ain)
		if err != nil {
			return nil, err
		}
		steps = append(steps, ev)
		pending[0] = move{dst: m.dst, src: sc, srcs: []reg{sc}}
	}
	return steps, nil
}

func (g *gen) moveStep(dst, src reg) step {
	d, s := dst.idx, src.idx
	switch dst.kind {
	case runtime.KI64:
		return func(fr *frame) { fr.i[d] = fr.i[s] }
	case runtime.KR64:
		return func(fr *frame) { fr.f[d] = fr.f[s] }
	case runtime.KC64:
		return func(fr *frame) { fr.c[d] = fr.c[s] }
	case runtime.KBool:
		return func(fr *frame) { fr.b[d] = fr.b[s] }
	default:
		return func(fr *frame) { fr.o[d] = fr.o[s] }
	}
}

// genInstr compiles a non-terminator instruction.
func (g *gen) genInstr(in *wir.Instr) (step, error) {
	switch in.Op {
	case wir.OpAbortCheck:
		return func(fr *frame) {
			if fr.rt.Aborted() {
				runtime.Throw(runtime.ExcAbort, "aborted")
			}
		}, nil
	case wir.OpClosure:
		return g.genClosure(in)
	case wir.OpCallIndirect:
		return g.genCallIndirect(in)
	case wir.OpCall:
		if target := g.directCallee(in); target != nil {
			return g.genDirectCall(in, target)
		}
		if _, ok := in.Prop("regcall"); ok {
			return g.genRegistryCall(in)
		}
		return g.genNative(in)
	}
	return nil, fmt.Errorf("codegen %s: unexpected op %d", g.fn.Name, in.Op)
}

func (g *gen) genClosure(in *wir.Instr) (step, error) {
	ref := in.Args[0].(*wir.FuncRef)
	target := g.prog.byName[ref.Fn.Name]
	capRegs := make([]reg, len(in.Args)-1)
	for i, a := range in.Args[1:] {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		capRegs[i] = r
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	d := dst.idx
	return func(fr *frame) {
		caps := make([]any, len(capRegs))
		for i, r := range capRegs {
			caps[i] = readReg(fr, r)
		}
		fr.o[d] = &FuncVal{Fn: target, Caps: caps}
	}, nil
}

// copyArgs moves caller argument registers into callee parameter registers
// without boxing: both sides' register classes agree by type checking, so
// the move is a direct slice copy per class.
func copyArgs(fr, cfr *frame, argRegs []reg, params []reg) {
	for i, r := range argRegs {
		p := params[i]
		switch r.kind {
		case runtime.KI64:
			cfr.i[p.idx] = fr.i[r.idx]
		case runtime.KR64:
			cfr.f[p.idx] = fr.f[r.idx]
		case runtime.KC64:
			cfr.c[p.idx] = fr.c[r.idx]
		case runtime.KBool:
			cfr.b[p.idx] = fr.b[r.idx]
		case runtime.KObj:
			cfr.o[p.idx] = fr.o[r.idx]
		}
	}
}

// copyRet moves the callee's return register into the caller's destination.
func copyRet(fr, cfr *frame, dst, ret reg) {
	switch dst.kind {
	case runtime.KI64:
		fr.i[dst.idx] = cfr.i[ret.idx]
	case runtime.KR64:
		fr.f[dst.idx] = cfr.f[ret.idx]
	case runtime.KC64:
		fr.c[dst.idx] = cfr.c[ret.idx]
	case runtime.KBool:
		fr.b[dst.idx] = cfr.b[ret.idx]
	case runtime.KObj:
		fr.o[dst.idx] = cfr.o[ret.idx]
	}
}

// directCallee returns the module function in calls, if it calls one. The
// pass pipeline records it in ResolvedFn; the baseline tier runs no passes,
// so there the callee is found by name — without writing it into the
// module, which is marshalled into the artifact store after this.
func (g *gen) directCallee(in *wir.Instr) *CFunc {
	if in.ResolvedFn != nil {
		return g.prog.byName[in.ResolvedFn.Name]
	}
	return g.prog.byName[in.Callee]
}

// genDirectCall compiles a call to another module function.
func (g *gen) genDirectCall(in *wir.Instr, target *CFunc) (step, error) {
	argRegs := make([]reg, len(in.Args))
	for i, a := range in.Args {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		argRegs[i] = r
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	hasResult := in.Ty != types.TVoid
	return func(fr *frame) {
		cfr := fr.rt.enter(target)
		copyArgs(fr, cfr, argRegs, target.params)
		target.exec(cfr)
		if hasResult && target.hasRet {
			copyRet(fr, cfr, dst, target.retReg)
		}
		fr.rt.leave(cfr)
	}, nil
}

// genCallIndirect compiles a call through a function value. Argument moves
// are typed (the callee signature was unified with the call site), so only
// closure captures go through boxed storage.
func (g *gen) genCallIndirect(in *wir.Instr) (step, error) {
	fnReg, err := g.regOf(in.Args[0])
	if err != nil {
		return nil, err
	}
	argRegs := make([]reg, len(in.Args)-1)
	for i, a := range in.Args[1:] {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		argRegs[i] = r
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	hasResult := in.Ty != types.TVoid
	fi := fnReg.idx
	return func(fr *frame) {
		fv, ok := fr.o[fi].(*FuncVal)
		if !ok {
			runtime.Throw(runtime.ExcType, "call of a non-function value")
		}
		target := fv.Fn
		cfr := fr.rt.enter(target)
		copyArgs(fr, cfr, argRegs, target.params)
		for i, c := range fv.Caps {
			writeReg(cfr, target.params[len(argRegs)+i], c)
		}
		target.exec(cfr)
		if hasResult && target.hasRet {
			copyRet(fr, cfr, dst, target.retReg)
		}
		fr.rt.leave(cfr)
	}, nil
}

// genRegistryCall compiles a cross-unit call resolved through the function
// registry: a direct unboxed call into a separately compiled function,
// instead of a boxed KernelApply round-trip through the interpreter. The
// *fnreg.Entry was baked in by inference; the installed binding is loaded
// per call (one atomic load), so redefinition-driven retirement takes
// effect on the next call. A retired/uninstalled entry throws a soft
// kernel exception, which the invocation wrapper in internal/core converts
// into an interpreter fallback (F2): stale callers degrade to the correct
// new semantics rather than running dead code.
func (g *gen) genRegistryCall(in *wir.Instr) (step, error) {
	p, _ := in.Prop("regcall")
	ent, ok := p.(*fnreg.Entry)
	if !ok || ent == nil {
		return nil, fmt.Errorf("codegen %s: call %s has a malformed registry resolution", g.fn.Name, in.Callee)
	}
	argRegs := make([]reg, len(in.Args))
	for i, a := range in.Args {
		r, err := g.regOf(a)
		if err != nil {
			return nil, err
		}
		argRegs[i] = r
	}
	dst, err := g.regOf(in)
	if err != nil {
		return nil, err
	}
	hasResult := in.Ty != types.TVoid
	name := in.Callee
	return func(fr *frame) {
		b := ent.Binding()
		if b == nil {
			runtime.Throw(runtime.ExcKernel, "call to %s: compiled entry is retired or not yet installed (definition changed); re-evaluate through the kernel", name)
		}
		fv, ok := b.Fn.(*FuncVal)
		if !ok {
			runtime.Throw(runtime.ExcKernel, "call to %s: registry entry is not closure-backend code", name)
		}
		target := fv.Fn
		cfr := fr.rt.enter(target)
		copyArgs(fr, cfr, argRegs, target.params)
		for i, c := range fv.Caps {
			writeReg(cfr, target.params[len(argRegs)+i], c)
		}
		target.exec(cfr)
		if hasResult && target.hasRet {
			copyRet(fr, cfr, dst, target.retReg)
		}
		fr.rt.leave(cfr)
	}, nil
}
