// Package infer implements the compiler's two-phase constraint-based type
// inference (paper §4.4). Phase one traverses the IR: it unifies what must be
// equal on the spot and lists one alternative — a want type and the options
// that could meet it, instantiated — for every overloaded call and every
// adaptable numeric literal. Phase two solves the alternatives from a work
// list: each is tried when it is made and again only after a type variable of
// its want has been bound; an option that fails is dropped for good; an
// alternative down to one viable option commits eagerly. When nothing is
// forced the canonical overload ordering (program order of the calls,
// declaration rank of the options, a one-step look-ahead; mirroring the
// pattern-specificity ordering) decides one alternative, and a call that no
// option fits is an error. Qualifier obligations (type-class membership) are
// checked once their variables ground. All bindings live in one
// types.Unifier and are undone from its trail, so neither a trial nor its
// failure allocates (DESIGN.md, "Inference does each piece of work once").
package infer

import (
	"fmt"

	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// typeErr builds a type-inference diagnostic anchored at the source MExpr
// recovered from the instruction's "mexpr" provenance property (nil when
// the instruction has no recorded source).
func typeErr(msg string, source expr.Expr) error {
	return diag.Newf(diag.Type, "T001", "%s", msg).WithSubject(source)
}

// Infer annotates every value in the module with a ground type, turning the
// WIR into TWIR (paper §4.5). Overload choices are recorded on each call
// instruction under the "overload" property. Registry calls resolve against
// the process-wide default registry; engine-scoped compiles use InferWith.
func Infer(mod *wir.Module, env *types.Env) error {
	return InferWith(mod, env, fnreg.Default())
}

// InferWith is Infer with an explicit function-registry namespace: unknown
// callees resolve against reg, so a compile running inside one engine never
// binds a call to another engine's promoted definitions.
func InferWith(mod *wir.Module, env *types.Env, reg *fnreg.Registry) error {
	_, err := InferCounted(mod, env, reg)
	return err
}

// Counts is how much work the solver did on one module. The numbers depend
// only on the module and the environment, so they repeat exactly.
type Counts struct {
	// Alternatives is how many overloaded calls and adaptable literals the
	// module has.
	Alternatives int `json:"alternatives"`
	// Trials is how many speculative unifications the solver made and
	// undid: one per option examined, plus the stall rule's look-ahead.
	Trials int `json:"trials"`
	// Commits is how many alternatives were decided; Stalls is how many of
	// those the canonical ordering decided because nothing was forced.
	Commits int `json:"commits"`
	Stalls  int `json:"stalls"`
}

// InferCounted is InferWith that also reports the solver's counts.
func InferCounted(mod *wir.Module, env *types.Env, reg *fnreg.Registry) (Counts, error) {
	in := newInferer(mod, env, reg)
	err := in.constrain(mod)
	if err == nil {
		err = in.solve()
	}
	if err == nil {
		err = in.writeBack(mod)
	}
	in.counts.Alternatives = len(in.alts)
	return in.counts, err
}

type altOption struct {
	def   *types.FuncDef
	ty    types.Type // instantiated type to unify against
	quals []types.Qual
	rank  int
	// unqualified: ty unifies but a qualifier is already violated, so the
	// option can never be chosen. It stays listed because the stall rule's
	// look-ahead asks only whether some option still unifies.
	unqualified bool
}

type altConstraint struct {
	want types.Type // the type the chosen option must unify with
	// options are the ones that still unify with want, in rank order. One
	// that fails is removed for good: bindings only grow, so it would fail
	// again.
	options  []altOption
	instr    *wir.Instr // call being resolved; nil for literal defaults
	source   expr.Expr
	resolved bool
	name     string
	examined bool
	queued   bool // on the work list
	stamp    int  // the last look-ahead that checked it
}

type inferer struct {
	env   *types.Env
	reg   *fnreg.Registry
	u     *types.Unifier
	valTy map[wir.Value]types.Type
	rets  map[*wir.Function]types.Type
	alts  []*altConstraint // in program order, which the stall rule follows
	quals []qualOb

	// queue is the work list: alternatives never examined, or with a
	// variable of their want bound since they last were. watchHead, indexed
	// by variable ID, starts the list (in watchNodes, 0 = end) of the
	// alternatives to wake when that variable is bound.
	queue      []*altConstraint
	watchHead  []int32
	watchNodes []watchNode
	// nextCall and nextLit are where the stall rule resumes its search for
	// the first undecided call and the first undecided literal.
	nextCall, nextLit int
	stamp             int

	counts Counts
	pr     types.Printer // numbers variables across this inference's messages
}

type watchNode struct {
	alt  *altConstraint
	next int32
}

type qualOb struct {
	q      types.Qual
	source expr.Expr
}

func newInferer(mod *wir.Module, env *types.Env, reg *fnreg.Registry) *inferer {
	nv := 0
	for _, f := range mod.Funcs {
		nv += len(f.Params)
		for _, b := range f.Blocks {
			nv += 2 * (len(b.Instrs) + len(b.Phis)) // results and literal operands
		}
	}
	return &inferer{
		env:        env,
		reg:        reg,
		u:          types.NewUnifier(),
		valTy:      make(map[wir.Value]types.Type, nv),
		rets:       make(map[*wir.Function]types.Type, len(mod.Funcs)),
		watchNodes: make([]watchNode, 1, 64),
	}
}

// constrain is phase one: it walks the module, unifies what must be equal
// and lists an alternative for every overloaded call and adaptable literal.
func (in *inferer) constrain(mod *wir.Module) error {
	// Assign type variables to every function signature first so calls and
	// references can mention them (mutual recursion).
	for _, f := range mod.Funcs {
		for _, p := range f.Params {
			if p.Ty == nil {
				in.valTy[p] = in.u.NewVar("p$" + p.Sym.Name)
			} else {
				in.valTy[p] = p.Ty
			}
		}
		if f.RetTy == nil {
			in.retTy(f) // allocate
		}
	}
	for _, f := range mod.Funcs {
		if err := in.constrainFunction(f); err != nil {
			return err
		}
	}
	return nil
}

// addAlt lists an alternative and puts it on the work list.
func (in *inferer) addAlt(a *altConstraint) {
	a.queued = true
	in.alts = append(in.alts, a)
	in.queue = append(in.queue, a)
}

func (in *inferer) retTy(f *wir.Function) types.Type {
	if t, ok := in.rets[f]; ok {
		return t
	}
	var t types.Type
	if f.RetTy != nil {
		t = f.RetTy
	} else {
		t = in.u.NewVar("ret$" + f.Name)
	}
	in.rets[f] = t
	return t
}

// typeOf assigns (or retrieves) the type for a value, creating literal
// alternatives for untyped constants.
func (in *inferer) typeOf(v wir.Value) types.Type {
	if t, ok := in.valTy[v]; ok {
		return t
	}
	var t types.Type
	switch x := v.(type) {
	case *wir.Const:
		t = in.constType(x)
	case *wir.FuncRef:
		callee := x.Fn
		ps := make([]types.Type, len(callee.Params))
		for i, p := range callee.Params {
			ps[i] = in.typeOf(p)
		}
		t = &types.Fn{Params: ps, Ret: in.retTy(callee)}
	case *wir.Instr:
		t = in.u.NewVar(fmt.Sprintf("t%d", x.IDNum))
	default:
		t = in.u.NewVar("v")
	}
	in.valTy[v] = t
	return t
}

// constType types a constant: fixed for typed literals, an alternative
// chain for numeric literals (an integer literal may be any Number,
// preferring Integer64 — this is how 2*x types Real64 when x is Real64).
func (in *inferer) constType(c *wir.Const) types.Type {
	if c.Ty != nil {
		return c.Ty
	}
	switch x := c.Expr.(type) {
	case *expr.Integer:
		v := in.u.NewVar("lit")
		in.addAlt(&altConstraint{
			want: v,
			options: []altOption{
				{ty: types.TInt64, rank: 0},
				{ty: types.TReal64, rank: 1},
				{ty: types.TComplex, rank: 2},
				{ty: types.TExpr, rank: 3},
			},
			name:   "integer literal",
			source: c.Expr,
		})
		return v
	case *expr.Real, *expr.Rational:
		v := in.u.NewVar("lit")
		in.addAlt(&altConstraint{
			want: v,
			options: []altOption{
				{ty: types.TReal64, rank: 0},
				{ty: types.TComplex, rank: 1},
				{ty: types.TExpr, rank: 2},
			},
			name:   "real literal",
			source: c.Expr,
		})
		return v
	case *expr.String:
		return types.TString
	case *expr.Symbol:
		if x == expr.SymNull {
			// Null adapts to its context; codegen emits a zero value.
			return in.u.NewVar("null")
		}
		return types.TExpr
	case *expr.Normal:
		if _, ok := expr.IsNormal(x, expr.SymList); ok {
			return in.constListType(x)
		}
		return types.TExpr
	}
	return in.u.NewVar("const")
}

// constListType types a literal constant array by shape: real elements pin
// Tensor[Real64, r]; all-integer arrays may be integer or real.
func (in *inferer) constListType(l expr.Expr) types.Type {
	rank := 0
	hasReal := false
	var walk func(e expr.Expr, depth int)
	walk = func(e expr.Expr, depth int) {
		if n, ok := expr.IsNormal(e, expr.SymList); ok {
			if depth+1 > rank {
				rank = depth + 1
			}
			for _, a := range n.Args() {
				walk(a, depth+1)
			}
			return
		}
		if _, ok := e.(*expr.Real); ok {
			hasReal = true
		}
	}
	walk(l, 0)
	if hasReal {
		return types.TensorOf(types.TReal64, rank)
	}
	v := in.u.NewVar("elem")
	in.addAlt(&altConstraint{
		want: v,
		options: []altOption{
			{ty: types.TInt64, rank: 0},
			{ty: types.TReal64, rank: 1},
		},
		name:   "integer array literal",
		source: l,
	})
	return types.TensorOf(v, rank)
}

func (in *inferer) unify(a, b types.Type, src expr.Expr) error {
	if !in.u.Unify(a, b) {
		return typeErr(in.u.Failure(&in.pr), src)
	}
	return nil
}

// show renders a type for a message, resolved as the solver sees it (not
// packed), its variables numbered in the order this inference's messages
// first mention them.
func (in *inferer) show(t types.Type) string { return in.pr.String(in.u.Substitute(t)) }

func srcOf(i *wir.Instr) expr.Expr {
	if v, ok := i.Prop("mexpr"); ok {
		if e, ok := v.(expr.Expr); ok {
			return e
		}
	}
	return nil
}

func (in *inferer) constrainFunction(f *wir.Function) error {
	for _, ann := range f.TypeAnnotations {
		if err := in.unify(in.typeOf(ann.Val), ann.Ty, nil); err != nil {
			return err
		}
	}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			pt := in.typeOf(phi)
			for _, a := range phi.Args {
				if err := in.unify(in.typeOf(a), pt, srcOf(phi)); err != nil {
					return err
				}
			}
		}
		for _, i := range b.Instrs {
			if err := in.constrainInstr(f, i); err != nil {
				return err
			}
		}
	}
	return nil
}

func (in *inferer) constrainInstr(f *wir.Function, i *wir.Instr) error {
	switch i.Op {
	case wir.OpCall:
		return in.constrainCall(f, i)
	case wir.OpCallIndirect:
		argTys := make([]types.Type, len(i.Args)-1)
		for j, a := range i.Args[1:] {
			argTys[j] = in.typeOf(a)
		}
		want := &types.Fn{Params: argTys, Ret: in.typeOf(i)}
		return in.unify(in.typeOf(i.Args[0]), want, srcOf(i))
	case wir.OpClosure:
		ref, ok := i.Args[0].(*wir.FuncRef)
		if !ok {
			return typeErr("closure over non-function", srcOf(i))
		}
		callee := ref.Fn
		captures := i.Args[1:]
		nPlain := len(callee.Params) - len(captures)
		if nPlain < 0 {
			return typeErr("closure capture arity mismatch", srcOf(i))
		}
		for j, c := range captures {
			if err := in.unify(in.typeOf(c), in.typeOf(callee.Params[nPlain+j]), srcOf(i)); err != nil {
				return err
			}
		}
		ps := make([]types.Type, nPlain)
		for j := 0; j < nPlain; j++ {
			ps[j] = in.typeOf(callee.Params[j])
		}
		return in.unify(in.typeOf(i), &types.Fn{Params: ps, Ret: in.retTy(callee)}, srcOf(i))
	case wir.OpBranch:
		return nil
	case wir.OpCondBranch:
		return in.unify(in.typeOf(i.Args[0]), types.TBool, srcOf(i))
	case wir.OpReturn:
		if len(i.Args) == 1 {
			return in.unify(in.typeOf(i.Args[0]), in.retTy(f), srcOf(i))
		}
		return in.unify(in.retTy(f), types.TVoid, srcOf(i))
	case wir.OpAbortCheck:
		return nil
	}
	return nil
}

func (in *inferer) constrainCall(f *wir.Function, i *wir.Instr) error {
	argTys := make([]types.Type, len(i.Args))
	for j, a := range i.Args {
		argTys[j] = in.typeOf(a)
	}
	want := &types.Fn{Params: argTys, Ret: in.typeOf(i)}

	// Calls to module functions (self/mutual recursion) bind directly.
	if target := f.Module.FuncByName(i.Callee); target != nil {
		ps := make([]types.Type, len(target.Params))
		for j, p := range target.Params {
			ps[j] = in.typeOf(p)
		}
		return in.unify(want, &types.Fn{Params: ps, Ret: in.retTy(target)}, srcOf(i))
	}

	switch i.Callee {
	case "Native`List":
		// {e1, ..., en}: either a vector of scalars or a matrix of rows.
		elem := in.u.NewVar("elem")
		vecParams := make([]types.Type, len(i.Args))
		rowParams := make([]types.Type, len(i.Args))
		for j := range i.Args {
			vecParams[j] = elem
			rowParams[j] = types.TensorOf(elem, 1)
		}
		in.addAlt(&altConstraint{
			want: want,
			options: []altOption{
				{ty: &types.Fn{Params: vecParams, Ret: types.TensorOf(elem, 1)}, rank: 0},
				{ty: &types.Fn{Params: rowParams, Ret: types.TensorOf(elem, 2)}, rank: 1},
			},
			instr:  i,
			name:   "Native`List",
			source: srcOf(i),
		})
		return nil
	case "Native`KernelApply":
		ps := make([]types.Type, len(i.Args))
		for j := range ps {
			ps[j] = types.TExpr
		}
		return in.unify(want, &types.Fn{Params: ps, Ret: types.TExpr}, srcOf(i))
	}

	defs := in.env.Lookup(i.Callee)
	// Filter by arity first (arity overloading, §4.4), and only then
	// instantiate: Plus alone has nine declarations.
	opts := make([]altOption, 0, len(defs))
	for rank, d := range defs {
		body := d.Type
		if fa, ok := body.(*types.ForAll); ok {
			body = fa.Body
		}
		if fn, ok := body.(*types.Fn); !ok || len(fn.Params) != len(i.Args) {
			continue
		}
		ty, quals := in.u.Instantiate(d.Type)
		opts = append(opts, altOption{def: d, ty: ty, quals: quals, rank: rank})
	}
	if len(opts) == 0 {
		// Last resort before failing: the function registry. A name that is
		// neither a module function nor a declared builtin may be another
		// separately compiled unit (an auto-promoted DownValue definition;
		// the members of a mutual-recursion group are functions of one
		// module). Resolve the call against its ground registry signature and
		// mark the instruction so codegen emits a direct registry call
		// instead of a boxed KernelApply round-trip.
		if ent, ok := in.reg.Lookup(i.Callee); ok {
			sig := ent.Sig()
			if len(sig.Params) == len(i.Args) {
				i.SetProp("regcall", ent)
				return in.unify(want, sig, srcOf(i))
			}
			return typeErr(fmt.Sprintf("registry function %s takes %d arguments, called with %d", i.Callee, len(sig.Params), len(i.Args)), srcOf(i))
		}
		name := i.Callee
		return typeErr(fmt.Sprintf("no matching implementation for %s with %d arguments; the function is unknown to the compiler (wrap the call in KernelFunction to evaluate it in the interpreter)", name, len(i.Args)), srcOf(i))
	}
	in.addAlt(&altConstraint{
		want: want, options: opts, instr: i, name: i.Callee, source: srcOf(i),
	})
	return nil
}

// verdict is what one trial of an option found.
type verdict int

const (
	viable      verdict = iota
	unqualified         // unifies, but a qualifier is already violated
	ununifiable
)

// trial checks whether an option can still be chosen: it unifies the
// option into the live bindings, checks the qualifiers the unification
// decided, and undoes the bindings. Nothing is allocated either way.
func (in *inferer) trial(a *altConstraint, opt *altOption) verdict {
	in.counts.Trials++
	mark := in.u.Mark()
	v := viable
	if !in.u.Unify(a.want, opt.ty) {
		v = ununifiable
	} else if !in.qualified(opt.quals) {
		v = unqualified
	}
	in.u.Undo(mark)
	return v
}

// qualified reports whether no qualifier is violated under the current
// bindings. Class membership is keyed by the outermost constructor, so it is
// decidable as soon as the head is known, even when arguments are still
// variables: Tensor[e, 1] is not a Number for any e, which is what
// disqualifies the scalar overloads for tensor operands.
func (in *inferer) qualified(quals []types.Qual) bool {
	for _, q := range quals {
		if t := in.u.Resolve(q.Var); headDecidable(t) && !in.env.MemberOf(t, q.Class) {
			return false
		}
	}
	return true
}

// headDecidable reports whether a type's class membership can already be
// determined (its outermost constructor is fixed).
func headDecidable(t types.Type) bool {
	switch t.(type) {
	case *types.Atomic, *types.Compound, *types.Fn:
		return true
	}
	return false
}

// consistent simulates committing opt and checks that every other pending
// alternative still has at least one option that unifies without violating
// opt's qualifiers (Mod[0.5, 1.] must not take the Integral row: no choice
// of the real literals' types is Integral). Only the
// alternatives watching a variable the simulated commit binds are looked
// at: the want of any other is untouched, and it has the two or more viable
// options it had when it was last examined.
func (in *inferer) consistent(a *altConstraint, opt *altOption) bool {
	u := in.u
	mark := u.Mark()
	in.counts.Trials++
	if !u.Unify(a.want, opt.ty) {
		u.Undo(mark)
		return false
	}
	in.stamp++
	// The inner trials push and pop above these trail entries only.
	for _, v := range u.Bound(mark) {
		for n := in.watchHead[v.ID]; n != 0; n = in.watchNodes[n].next {
			other := in.watchNodes[n].alt
			if other == a || other.resolved || other.stamp == in.stamp {
				continue
			}
			other.stamp = in.stamp
			ok := false
			for i := range other.options {
				in.counts.Trials++
				inner := u.Mark()
				ok = u.Unify(other.want, other.options[i].ty) && in.qualified(opt.quals)
				u.Undo(inner)
				if ok {
					break
				}
			}
			if !ok {
				u.Undo(mark)
				return false
			}
		}
	}
	u.Undo(mark)
	return true
}

// commit decides a for opt and wakes every alternative watching a variable
// the decision binds.
func (in *inferer) commit(a *altConstraint, opt *altOption) error {
	mark := in.u.Mark()
	if !in.u.Unify(a.want, opt.ty) {
		return typeErr(in.u.Failure(&in.pr), a.source)
	}
	in.counts.Commits++
	for _, q := range opt.quals {
		in.quals = append(in.quals, qualOb{q: q, source: a.source})
	}
	if a.instr != nil && opt.def != nil {
		a.instr.SetProp("overload", opt.def)
	}
	if a.instr != nil {
		a.instr.SetProp("calltype", opt.ty)
	}
	a.resolved = true
	for _, v := range in.u.Bound(mark) {
		for n := in.watchHead[v.ID]; n != 0; n = in.watchNodes[n].next {
			if w := in.watchNodes[n].alt; !w.resolved && !w.queued {
				w.queued = true
				in.queue = append(in.queue, w)
			}
		}
		in.watchHead[v.ID] = 0 // bound for good: nobody waits for it any more
	}
	return nil
}

// watch registers a to be woken when a variable free in t is bound.
func (in *inferer) watch(a *altConstraint, t types.Type) {
	switch x := in.u.Resolve(t).(type) {
	case *types.Var:
		if in.u.Owns(x) {
			in.watchNodes = append(in.watchNodes, watchNode{alt: a, next: in.watchHead[x.ID]})
			in.watchHead[x.ID] = int32(len(in.watchNodes) - 1)
		}
	case *types.Compound:
		for _, arg := range x.Args {
			in.watch(a, arg)
		}
	case *types.Fn:
		for _, p := range x.Params {
			in.watch(a, p)
		}
		in.watch(a, x.Ret)
	}
}

// examine tries a's remaining options against the current bindings. One
// that no longer unifies is dropped for good; if exactly one is viable it
// is committed (the eager rule); otherwise a waits for its want to change.
func (in *inferer) examine(a *altConstraint) error {
	if v, isVar := in.u.Resolve(a.want).(*types.Var); isVar && a.examined {
		// A literal whose variable was only renamed: while want is a bare
		// variable it unifies with every option exactly as it did last time.
		in.watch(a, v)
		return nil
	}
	a.examined = true
	kept := a.options[:0]
	nViable, only := 0, -1
	for i := range a.options {
		opt := a.options[i]
		if !opt.unqualified {
			switch in.trial(a, &opt) {
			case ununifiable:
				continue
			case unqualified:
				opt.unqualified = true
			case viable:
				nViable++
				only = len(kept)
			}
		}
		kept = append(kept, opt)
	}
	a.options = kept
	switch nViable {
	case 0:
		return in.noOverload(a)
	case 1:
		return in.commit(a, &a.options[only])
	}
	in.watch(a, a.want)
	return nil
}

func (in *inferer) noOverload(a *altConstraint) error {
	return typeErr(fmt.Sprintf("no overload of %s matches %s", a.name, in.show(a.want)), a.source)
}

// stalled returns the alternative the canonical ordering decides next when
// nothing is forced: the first undecided call in program order, and only
// when no call is left the first undecided literal, so that calls see
// maximally informed types before literals take their defaults.
func (in *inferer) stalled() *altConstraint {
	for ; in.nextCall < len(in.alts); in.nextCall++ {
		if a := in.alts[in.nextCall]; !a.resolved && a.instr != nil {
			return a
		}
	}
	for ; in.nextLit < len(in.alts); in.nextLit++ {
		if a := in.alts[in.nextLit]; !a.resolved {
			return a
		}
	}
	return nil
}

// solve is phase two. It drains the work list, committing every alternative
// that has a single viable option left; when nothing is forced it lets the
// canonical overload ordering (§4.4) decide one alternative, and goes back
// to the work list, which now holds exactly what that decision woke.
func (in *inferer) solve() error {
	in.watchHead = make([]int32, in.u.NumVars()+1)
	for {
		for head := 0; head < len(in.queue); head++ {
			a := in.queue[head]
			a.queued = false
			if a.resolved {
				continue
			}
			if err := in.examine(a); err != nil {
				return err
			}
		}
		in.queue = in.queue[:0]
		a := in.stalled()
		if a == nil {
			break
		}
		in.counts.Stalls++
		// Declaration order provides the canonical overload ordering (the
		// options are in it), refined by a one-step consistency check: an
		// option that would strand another pending alternative with zero
		// viable choices is skipped (e.g. an integer literal must not default
		// to Integer64 when it is unified with a real literal).
		choice := -1
		for i := range a.options {
			if a.options[i].unqualified {
				continue
			}
			if choice < 0 {
				choice = i
			}
			if in.consistent(a, &a.options[i]) {
				choice = i
				break
			}
		}
		if choice < 0 {
			return in.noOverload(a)
		}
		if err := in.commit(a, &a.options[choice]); err != nil {
			return err
		}
	}

	// Check the accumulated qualifier obligations.
	for _, ob := range in.quals {
		t := in.u.Zonk(ob.q.Var)
		if !types.IsGround(t) {
			return typeErr(fmt.Sprintf("unresolved type %s constrained to class %s", in.pr.String(t), ob.q.Class), ob.source)
		}
		if !in.env.MemberOf(t, ob.q.Class) {
			return typeErr(fmt.Sprintf("type %s is not a member of class %q", t, ob.q.Class), ob.source)
		}
	}
	return nil
}

// writeBack applies the final substitution to every value, requiring ground
// types (code generation refuses variables, §4.6).
func (in *inferer) writeBack(mod *wir.Module) error {
	resolve := func(v wir.Value, owner *wir.Function) (types.Type, error) {
		t := in.u.Zonk(in.typeOf(v))
		if !types.IsGround(t) {
			// Dangling Null/unused values default to Void.
			if fv, ok := t.(*types.Var); ok && in.u.Unify(fv, types.TVoid) {
				return types.TVoid, nil
			}
			return nil, typeErr(fmt.Sprintf("could not infer a concrete type (got %s) in %s", in.pr.String(t), owner.Name), nil)
		}
		return t, nil
	}
	for _, f := range mod.Funcs {
		for _, p := range f.Params {
			t, err := resolve(p, f)
			if err != nil {
				return err
			}
			p.Ty = t
		}
		rt := in.u.Zonk(in.retTy(f))
		if !types.IsGround(rt) {
			rt = types.TVoid
		}
		f.RetTy = rt
		for _, b := range f.Blocks {
			for _, phi := range b.Phis {
				t, err := resolve(phi, f)
				if err != nil {
					return err
				}
				phi.Ty = t
				for _, a := range phi.Args {
					switch v := a.(type) {
					case *wir.Const:
						ct, err := resolve(v, f)
						if err != nil {
							return err
						}
						v.Ty = ct
						normaliseConst(v)
					case *wir.FuncRef:
						ft, err := resolve(v, f)
						if err != nil {
							return err
						}
						v.Ty = ft
					}
				}
			}
			for _, i := range b.Instrs {
				t, err := resolve(i, f)
				if err != nil {
					return err
				}
				i.Ty = t
				for _, a := range i.Args {
					switch v := a.(type) {
					case *wir.Const:
						ct, err := resolve(v, f)
						if err != nil {
							return err
						}
						v.Ty = ct
						normaliseConst(v)
					case *wir.FuncRef:
						ft, err := resolve(v, f)
						if err != nil {
							return err
						}
						v.Ty = ft
					}
				}
				if ct, ok := i.Prop("calltype"); ok {
					i.SetProp("calltype", in.u.Zonk(ct.(types.Type)))
				}
			}
		}
	}
	mod.Typed = true
	return nil
}

// normaliseConst rewrites literal constants whose inferred type differs
// from their literal form (an integer literal typed Real64 becomes a Real).
func normaliseConst(c *wir.Const) {
	switch c.Ty {
	case types.TReal64:
		if i, ok := c.Expr.(*expr.Integer); ok && i.IsMachine() {
			c.Expr = expr.FromFloat(float64(i.Int64()))
		}
		if r, ok := c.Expr.(*expr.Rational); ok {
			f, _ := r.V.Float64()
			c.Expr = expr.FromFloat(f)
		}
	case types.TComplex:
		if i, ok := c.Expr.(*expr.Integer); ok && i.IsMachine() {
			c.Expr = expr.FromComplex(float64(i.Int64()), 0)
		}
		if r, ok := c.Expr.(*expr.Real); ok {
			c.Expr = expr.FromComplex(r.V, 0)
		}
	}
}
