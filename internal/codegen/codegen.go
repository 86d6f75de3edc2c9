// Package codegen implements the compiler's backends (paper §4.6). The
// default backend compiles TWIR to closure-threaded native Go code: every
// instruction becomes a Go closure over unboxed register files (int64,
// float64, complex128, bool, and object registers), and the control-flow
// graph becomes a tree of closures that runs a loop as a Go loop and an If as
// a Go if (regions.go). This plays the architectural role of the paper's
// LLVM JIT — typed, unboxed, register-based code with real inlining — against
// the baseline's boxed stack bytecode (see DESIGN.md for the substitution
// rationale).
// The C source backend lowers the same TWIR (cbackend.go).
package codegen

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// RT is the runtime context of one invocation of compiled code, threaded
// through every frame: the engine and the invocation's activation records.
// One RT serves one invocation at a time, so concurrent callers never share
// one; the wrapper in internal/core takes it from AcquireRT and gives it back
// with Release, frame stack attached. The zero value is a valid context with
// no engine.
type RT struct {
	Engine runtime.Engine

	// frames holds the activation records by call depth; those below depth
	// are in use. A level takes the record at its depth and CFunc.units of
	// depth, so the slots a costly level skips stay nil. A record outlives the
	// call that used it and is re-sliced for the next function entered at its
	// depth, so a call allocates only when that function needs more registers
	// of some class than any before it there. Records are separate
	// allocations because live frames hold pointers to theirs while the slice
	// grows.
	frames []*frame
	depth  int
}

// Aborted polls the abort flag; standalone code (nil engine) never aborts.
func (rt *RT) Aborted() bool { return rt.Engine != nil && rt.Engine.Aborted() }

// maxCallDepth bounds compiled call nesting, in units of unitBytes of Go
// stack. The Go runtime kills the process when a stack must grow past 512 MB,
// and stacks double, so compiled code is held to half that: 1<<19 units of
// 512 bytes. What a level puts on the stack depends on where in its function
// the next call sits: its call node (callBytes) and one closure (frameBytes;
// the largest, a loop, is 72) for each region, fold of a sequence and node of
// an expression tree it is nested in, a call node it is an argument of taking
// callBytes. A level takes as many units of depth as its function can cost at
// most (CFunc.units), so the bound holds whatever the program's shape: a call
// in a lone If uses 208 bytes, is charged one unit and nests 524 288 deep;
// under 25 nested Ifs it uses 2 208, takes nine units and stops at 58 254.
const (
	maxCallDepth = 1 << 19
	unitBytes    = 512
	callBytes    = 160
	frameBytes   = 80
)

// idleRTs holds the runtime contexts no invocation is using, frame stacks
// attached: one list for the process. (A sync.Pool keeps one per P and drops
// them at the second GC, so a call on a P new to its caller grew a whole frame
// stack again.) It keeps maxIdleRTs, none deeper than maxIdleFrames records.
var idleRTs struct {
	sync.Mutex
	free []*RT
}

const maxIdleRTs, maxIdleFrames = 64, 1 << 12

// AcquireRT returns the last released runtime context, or a new one.
func AcquireRT(eng runtime.Engine) *RT {
	idleRTs.Lock()
	defer idleRTs.Unlock()
	n := len(idleRTs.free)
	if n == 0 {
		return &RT{Engine: eng}
	}
	rt := idleRTs.free[n-1]
	idleRTs.free = slices.Delete(idleRTs.free, n-1, n)
	rt.Engine = eng
	return rt
}

// Release returns rt to the idle list; run it deferred. An exception unwinds
// past every leave between the throw and here, and the records it skipped are
// exactly those below depth: their object registers are cleared so that an
// idle stack pins no tensor.
func (rt *RT) Release() {
	for _, fr := range rt.frames[:rt.depth] {
		if fr != nil {
			clear(fr.o)
		}
	}
	rt.depth, rt.Engine = 0, nil
	idleRTs.Lock()
	if len(rt.frames) <= maxIdleFrames && len(idleRTs.free) < maxIdleRTs {
		idleRTs.free = append(idleRTs.free, rt)
	}
	idleRTs.Unlock()
}

// enter takes the activation record at the current depth for a call of cf,
// after the function's entry abort poll: its register files re-sliced to
// cf's counts (a file of that length already, as every level of a recursion
// finds it, is not stored again), constants loaded, and the captures of the
// function value it was called through written into their parameters.
// Classes cf does not use are left as the last user had them; when cf has
// objects, the object file is cf's exact window, which is what leave and
// Release clear.
func (rt *RT) enter(cf *CFunc, caps []any) *frame {
	if cf.poll && rt.Aborted() {
		runtime.Throw(runtime.ExcAbort, "aborted")
	}
	top := rt.depth + cf.units
	if top > len(rt.frames) || rt.frames[rt.depth] == nil {
		rt.grow(top)
	}
	fr := rt.frames[rt.depth]
	rt.depth = top
	if cf.nI > 0 && len(fr.i) != cf.nI {
		fr.i = resized(fr.i, cf.nI)
	}
	if cf.nF > 0 && len(fr.f) != cf.nF {
		fr.f = resized(fr.f, cf.nF)
	}
	if cf.nC > 0 && len(fr.c) != cf.nC {
		fr.c = resized(fr.c, cf.nC)
	}
	if cf.nB > 0 && len(fr.b) != cf.nB {
		fr.b = resized(fr.b, cf.nB)
	}
	if cf.nO > 0 && len(fr.o) != cf.nO {
		fr.o = resized(fr.o, cf.nO)
	}
	if cf.constInit != nil {
		cf.loadConsts(fr)
	}
	for k, c := range caps {
		writeReg(fr, cf.params[len(cf.params)-len(caps)+k], c)
	}
	return fr
}

// loadConsts writes cf's constants into the record enter took for it.
func (cf *CFunc) loadConsts(fr *frame) {
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
}

// grow makes room for a level that reaches depth top and a record for it at
// the current depth, or throws when top is past the limit.
func (rt *RT) grow(top int) {
	if top > maxCallDepth {
		runtime.Throw(runtime.ExcDepth, "compiled call depth of %d exceeded", maxCallDepth)
	}
	if need := top - len(rt.frames); need > 0 {
		rt.frames = append(rt.frames, make([]*frame, need)...)
	}
	if rt.frames[rt.depth] == nil {
		rt.frames[rt.depth] = &frame{rt: rt}
	}
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

// leave returns the top record, which a call of cf took. Object registers may
// pin big tensors, so they are cleared now, not when the record is next used.
func (rt *RT) leave(cf *CFunc, fr *frame) {
	if cf.nO > 0 {
		clear(fr.o)
	}
	rt.depth -= cf.units
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

// CFunc is one compiled function.
type CFunc struct {
	Name               string
	nI, nF, nC, nB, nO int
	constInit          []constInit
	params             []reg
	retReg             reg
	retKind            runtime.Kind
	hasRet             bool
	// body runs the function on a prepared frame: its region tree, compiled.
	// poll is set when the abort check that opens the entry block is made by
	// enter, on the way in, in place of a closure of its own.
	body step
	poll bool
	// units is the depth one level of the function takes: what it can put on
	// the Go stack, the closure that calls it and the closures its body nests
	// to, in units of unitBytes.
	units int

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
	// FuseLevel selects superinstruction fusion: FuseOff emits one closure
	// per instruction (the differential-testing baseline and the baseline
	// tier), and every other value, the zero value included, means FuseFull:
	// scalar def-use chains, compares with their branch, Part load/store
	// trees, and phi-edge moves each fuse into a single closure.
	FuseLevel int
	// ProfileLevel > 0 instruments every basic block with an atomic
	// execution counter (ISSUE 4): exact per-block and loop-trip counts,
	// dumpable as a hot-block table (CFunc.ProfileTable). The counter is
	// the first step of its block, so fusion and region shape leave the
	// counts exact.
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
	return eachFunction(mod, opts, (*gen).generate)
}

// eachFunction sets up the program and one generator per function of a typed
// module, and runs do on each.
func eachFunction(mod *wir.Module, opts CompileOptions, do func(*gen) error) (*Program, error) {
	if !mod.Typed {
		return nil, fmt.Errorf("codegen: module is untyped; run inference first (§4.6: code generation only operates on fully typed TWIR)")
	}
	p := &Program{Module: mod, byName: map[string]*CFunc{}}
	// Create shells first so direct calls and closures can reference them.
	for _, f := range mod.Funcs {
		cf := &CFunc{Name: f.Name, naiveConsts: opts.NaiveConstants}
		p.Funcs = append(p.Funcs, cf)
		p.byName[f.Name] = cf
	}
	for i, f := range mod.Funcs {
		g := &gen{prog: p, fn: f, cf: p.Funcs[i], regs: map[wir.Value]reg{}, fuse: opts.FuseLevel != FuseOff, profile: opts.ProfileLevel > 0}
		if err := do(g); err != nil {
			return nil, err
		}
	}
	p.Main = p.byName["Main"]
	if p.Main == nil && len(p.Funcs) > 0 {
		p.Main = p.Funcs[0]
	}
	return p, nil
}

// CallValues invokes the compiled function with unboxed arguments (int64,
// float64, complex128, bool, string, expr.Expr, *runtime.Tensor, *FuncVal)
// and returns the unboxed result.
func (cf *CFunc) CallValues(rt *RT, args ...any) any {
	if len(args) != len(cf.params) {
		runtime.Throw(runtime.ExcType, "%s: expected %d arguments, got %d", cf.Name, len(cf.params), len(args))
	}
	fr := rt.enter(cf, nil)
	for i, a := range args {
		writeReg(fr, cf.params[i], a)
	}
	cf.body(fr)
	var res any
	if cf.hasRet {
		res = readReg(fr, cf.retReg)
	}
	rt.leave(cf, fr)
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
	// get no step and no register of their own), and into maps each to that
	// consumer: an instruction, a terminator, or the phi of an edge move.
	fused map[*wir.Instr]bool
	into  map[*wir.Instr]*wir.Instr
	// profile enables per-block execution counters (CompileOptions.
	// ProfileLevel > 0).
	profile bool
	// uses counts the operand references to each value; see useCount.
	uses map[wir.Value]int
	// cfg is the control-flow analysis behind the region tree.
	cfg *passes.CFG
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
	if err := g.prepare(); err != nil {
		return err
	}
	tree, err := g.regions()
	if err != nil {
		return err
	}
	if g.profile {
		g.cf.profCounts = make([]atomic.Uint64, len(g.fn.Blocks))
		g.cf.profLabels = make([]string, len(g.fn.Blocks))
		g.cf.profLoop = slices.Clone(g.cfg.Header) // one loop region per header
		for i, b := range g.fn.Blocks {
			g.cf.profLabels[i] = b.Label
		}
	}
	g.cf.poll = !g.profile && !g.cfg.Header[0] && g.fn.Blocks[0].Instrs[0].Op == wir.OpAbortCheck
	b, err := g.compile(tree)
	deep := b.depth()
	// A function is its steps; one whose control leaves from a nested
	// position (a Return in a loop) runs them, then the flow that has it.
	if pre, rest := seqStep(b.steps), b.ctl; rest == nil && pre != nil {
		g.cf.body = pre
	} else {
		deep++
		g.cf.body = func(fr *frame) {
			if pre != nil {
				pre(fr)
			}
			if rest != nil {
				rest(fr)
			}
		}
	}
	g.cf.units = (callBytes + deep*frameBytes + g.nesting() + unitBytes - 1) / unitBytes
	return err
}

// nesting is the most Go stack a call fused into a tree runs under, above the
// step that holds the tree: the closure of every node between it and the
// root, a call node's being its own and its argument pass.
func (g *gen) nesting() (most int) {
	for in, c := range g.into {
		for n := 0; g.isCall(in) && c != nil && c.Op != wir.OpPhi && !c.IsTerminator(); c = g.into[c] {
			if n += frameBytes; g.isCall(c) {
				n += callBytes - frameBytes
			}
			most = max(most, n)
		}
	}
	return most
}

// prepare assigns the parameter and return registers and decides what
// shares a register and what fuses: everything code generation settles
// before it looks at control flow.
func (g *gen) prepare() error {
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
	if err := g.coalesceObjects(); err != nil {
		return err
	}
	// The value every Return returns, when there is one, is computed into the
	// return register, and the Returns move nothing.
	if v := g.returned(); v != nil && g.cf.hasRet && runtime.KindOf(v.Ty) == g.cf.retReg.kind {
		if _, ok := g.regs[v]; !ok {
			g.regs[v] = g.cf.retReg
		}
	}
	return g.markFused()
}

// returned is the instruction or phi every Return returns, or nil.
func (g *gen) returned() (v *wir.Instr) {
	for _, b := range g.fn.Blocks {
		if t := b.Term(); t != nil && t.Op == wir.OpReturn {
			var x *wir.Instr
			if len(t.Args) == 1 {
				x, _ = t.Args[0].(*wir.Instr)
			}
			if x == nil || v != nil && x != v {
				return nil
			}
			v = x
		}
	}
	return v
}

// blockSteps appends the steps of b's instructions, terminator apart, to
// steps: under profiling the block's counter first, and without the leading
// abort check when the loop closure polls for it.
func (g *gen) blockSteps(steps []step, b *wir.Block, polled bool) ([]step, error) {
	if g.profile {
		ctr := &g.cf.profCounts[g.cfg.Index(b)]
		steps = append(steps, func(fr *frame) { ctr.Add(1) })
	}
	instrs := b.Instrs[:len(b.Instrs)-1]
	if polled {
		instrs = instrs[1:]
	}
	for _, in := range instrs {
		if g.fused[in] {
			continue // folded into its consumer superinstruction
		}
		st, err := g.genInstr(in)
		if err != nil {
			return nil, err
		}
		if st != nil {
			steps = append(steps, st)
		}
	}
	return steps, nil
}

// returnStep moves a Return's operand into the return register (nil when it
// returns nothing).
func (g *gen) returnStep(in *wir.Instr) (step, error) {
	if len(in.Args) != 1 || !g.cf.hasRet {
		return nil, nil
	}
	if a, ok := in.Args[0].(*wir.Instr); ok && g.fused[a] {
		return g.assignTo(g.cf.retReg, a)
	}
	src, err := g.regOf(in.Args[0])
	if err != nil || src == g.cf.retReg {
		return nil, err
	}
	return g.moveStep(g.cf.retReg, src), nil
}

// testOf compiles the condition of a conditional branch.
func (g *gen) testOf(in *wir.Instr) (test, error) {
	if cmp, ok := in.Args[0].(*wir.Instr); ok && g.fused[cmp] {
		ev, err := g.buildEvalB(cmp)
		return test{ev: ev}, err
	}
	r, err := g.regOf(in.Args[0])
	if err == nil && r.kind != runtime.KBool {
		err = fmt.Errorf("codegen %s: condition in %v register", g.fn.Name, r.kind)
	}
	return test{reg: r.idx}, err
}

// phiMoveSteps builds the parallel copy for the edge from→to in the order
// wir.SequenceCopies gives, saving a copy in a temporary register where a
// cycle needs one.
func (g *gen) phiMoveSteps(from, to *wir.Block) ([]step, error) {
	if len(to.Phis) == 0 {
		return nil, nil
	}
	predIdx := to.PredIndex(from)
	if predIdx < 0 {
		return nil, fmt.Errorf("codegen %s: edge %s->%s not in preds", g.fn.Name, from.Label, to.Label)
	}
	// A move is either a plain register copy or (with full fusion) a
	// prebuilt evaluation of a fused expression tree straight into the phi
	// register; its copy lists every register the move reads.
	type move struct {
		dst, src reg
		ev       step
		ain      *wir.Instr // fused tree behind ev, evaluated again when saved
	}
	moves := make([]move, 0, len(to.Phis))
	copies := make([]wir.Copy[reg], 0, len(to.Phis))
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
			moves = append(moves, move{dst: dst, ev: st, ain: ain})
			copies = append(copies, wir.Copy[reg]{Dst: dst, Reads: leaves, Tree: true})
			continue
		}
		src, err := g.regOf(arg)
		if err != nil {
			return nil, err
		}
		if dst != src {
			moves = append(moves, move{dst: dst, src: src})
			copies = append(copies, wir.Copy[reg]{Dst: dst, Reads: []reg{src}})
		}
	}
	var steps []step
	for _, s := range wir.SequenceCopies(copies) {
		m := &moves[s.Copy]
		switch {
		case !s.Save && m.ev != nil:
			steps = append(steps, m.ev)
		case !s.Save:
			steps = append(steps, g.moveStep(m.dst, m.src))
		case m.ev == nil:
			sc := g.alloc(m.src.kind)
			steps = append(steps, g.moveStep(sc, m.src))
			m.src = sc
		default:
			// The tree's leaves still hold their values from before the edge.
			sc := g.alloc(m.dst.kind)
			ev, err := g.assignTo(sc, m.ain)
			if err != nil {
				return nil, err
			}
			steps = append(steps, ev)
			m.src, m.ev = sc, nil
		}
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
	case wir.OpCall, wir.OpCallIndirect:
		// A call is the one place compiled code enters a body: as a
		// statement, the assignment form of the node.
		switch {
		case !g.isCall(in):
			return g.genNative(in)
		case in.Ty == types.TVoid:
			cs, err := g.callSite(in)
			return callStep(cs), err
		}
		dst, err := g.regOf(in)
		if err != nil {
			return nil, err
		}
		return g.assignTo(dst, in)
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

// isCall reports whether in calls compiled code: a module function, a
// function value or a registry entry.
func (g *gen) isCall(in *wir.Instr) bool {
	_, registry := in.Prop("regcall")
	return in.Op == wir.OpCallIndirect || in.Op == wir.OpCall && (registry || g.directCallee(in) != nil)
}

// operandArgs reports whether a call passes one or two arguments, each an
// Integer64 or a Real64: the calls passBySig has a pass for, whose arguments
// are operands and may be fused trees. Recursion on an index or a size and
// comparators of reals take these; any other call passes registers.
func operandArgs(in *wir.Instr) bool {
	args := in.Args
	if in.Op == wir.OpCallIndirect {
		args = args[1:]
	}
	return len(args) > 0 && len(args) <= 2 && !slices.ContainsFunc(args, func(a wir.Value) bool {
		return a.Type() == nil || runtime.KindOf(a.Type()) != runtime.KI64 && runtime.KindOf(a.Type()) != runtime.KR64
	})
}

// callSite is a call of compiled code, the node of an expression tree that
// enters a body: callEval* are its evaluators by result kind and callAssign
// its assignment forms (fusion_modes.go). The node reaches its operands through
// this one pointer, so that nothing but it and the two frames is live across
// the calls it makes. A direct call's callee is fixed; resolve finds an
// indirect or registry call's at run time. An operandArgs call's argument k
// is i[k] or f[k] by its kind, sig numbers the kinds and pass is
// passBySig[sig]; any other call's pass, passRegs, reads the registers regs.
type callSite struct {
	target  *CFunc
	resolve func(fr *frame) *FuncVal
	sig     int
	pass    func(cs *callSite, fr *frame) (*CFunc, *frame)
	i       [2]opI
	f       [2]opF
	regs    []reg
}

// callee is the function the call enters, and the captures of the function
// value it found it in.
func (cs *callSite) callee(fr *frame) (*CFunc, []any) {
	if cs.resolve == nil {
		return cs.target, nil
	}
	fv := cs.resolve(fr)
	return fv.Fn, fv.Caps
}

// callSite compiles a call's callee and arguments. A fused argument tree is
// evaluated by the node, left to right, before the callee is entered, and
// written into its parameter registers after: there is no temporary in the
// caller.
func (g *gen) callSite(in *wir.Instr) (*callSite, error) {
	cs, args := &callSite{target: g.directCallee(in)}, in.Args
	switch {
	case in.Op == wir.OpCallIndirect:
		args = args[1:]
		// Argument moves are typed (the callee signature was unified with the
		// call site), so only closure captures go through boxed storage.
		r, err := g.regOf(in.Args[0])
		if err != nil {
			return nil, err
		}
		fi := r.idx
		cs.target, cs.resolve = nil, func(fr *frame) *FuncVal {
			fv, ok := fr.o[fi].(*FuncVal)
			if !ok {
				runtime.Throw(runtime.ExcType, "call of a non-function value")
			}
			return fv
		}
	case cs.target == nil:
		// A cross-unit call resolved through the function registry: a direct
		// unboxed call into a separately compiled function, instead of a boxed
		// KernelApply round-trip through the interpreter. The *fnreg.Entry was
		// baked in by inference; the installed binding is loaded per call (one
		// atomic load), so redefinition-driven retirement takes effect on the
		// next call. A retired/uninstalled entry throws a soft kernel
		// exception, which the invocation wrapper in internal/core converts
		// into an interpreter fallback (F2): stale callers degrade to the
		// correct new semantics rather than running dead code.
		p, _ := in.Prop("regcall")
		ent, ok := p.(*fnreg.Entry)
		if !ok || ent == nil {
			return nil, fmt.Errorf("codegen %s: call %s has a malformed registry resolution", g.fn.Name, in.Callee)
		}
		name := in.Callee
		cs.resolve = func(fr *frame) *FuncVal {
			b := ent.Binding()
			if b == nil {
				runtime.Throw(runtime.ExcKernel, "call to %s: compiled entry is retired or not yet installed (definition changed); re-evaluate through the kernel", name)
			}
			fv, ok := b.Fn.(*FuncVal)
			if !ok {
				runtime.Throw(runtime.ExcKernel, "call to %s: registry entry is not closure-backend code", name)
			}
			return fv
		}
	}
	if !operandArgs(in) {
		cs.pass, cs.regs = passRegs, make([]reg, len(args))
		for k, a := range args {
			r, err := g.regOf(a)
			if err != nil {
				return nil, err
			}
			cs.regs[k] = r
		}
		return cs, nil
	}
	// passBySig is in order of arity, then of the kinds of the arguments (bit
	// k set for a Real64): 1–2 for one argument, 3–6 for two.
	cs.sig = 1<<len(args) - 1
	for k, a := range args {
		var err error
		if runtime.KindOf(a.Type()) == runtime.KI64 {
			cs.i[k], err = g.opIFor(a)
		} else {
			cs.sig += 1 << k
			cs.f[k], err = g.opFFor(a)
		}
		if err != nil {
			return nil, err
		}
	}
	cs.pass = passBySig[cs.sig]
	return cs, nil
}
