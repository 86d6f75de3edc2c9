// Quick inference: the baseline-tier front end. The constraint solver in
// infer.go (alternatives, speculative unification, consistency checks) was
// most of a full-pipeline compile when the stencil tier was built to avoid
// it; since ISSUE 18 it is about a quarter of one, and Quick is still
// several times cheaper on the fragment it covers (ROADMAP item 6 asks
// whether that is still worth a rung). Quick is a single forward pass over the untyped WIR
// for the machine-scalar fragment the tiering engine promotes: Integer64/
// Real64/ComplexReal64/Boolean values, native-backed scalar primitives,
// module-internal recursion, and registry calls. Anything outside that
// fragment — tensors, strings, closures, kernel escapes, impl-backed
// overloads — fails fast, and the caller falls back to the full
// constraint-based pipeline.
//
// Overload selection mirrors the solver's canonical ordering on ground
// operands: declaration rank wins, and numeric literals adapt to the
// parameter type of the first viable overload (Integer64 first, the same
// default the alternative chain in constType commits when unconstrained).
package infer

import (
	"fmt"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// ErrQuickUnsupported wraps every Quick rejection so callers can
// distinguish "outside the baseline fragment" (fall back to the full
// pipeline) from real errors.
var ErrQuickUnsupported = fmt.Errorf("outside the quick-inference scalar fragment")

func quickErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrQuickUnsupported, fmt.Sprintf(format, args...))
}

// litClass classifies an untyped constant by the types it may adapt to.
type litClass int

const (
	litNone litClass = iota // not an adaptable literal
	litInt                  // integer literal: Integer64 > Real64 > Complex
	litReal                 // real/rational literal: Real64 > Complex
)

// quick is the single-pass annotator state for one module.
type quick struct {
	env  *types.Env
	reg  *fnreg.Registry
	mod  *wir.Module
	u    *types.Unifier // made by the first declaration the fast paths do not cover
	ty   map[wir.Value]types.Type
	rets map[*wir.Function]types.Type
	// consts collects literals typed along the way for write-back.
	consts []*wir.Const
}

// Quick type-annotates mod in one forward pass, producing the same TWIR
// contract as Infer (ground value types, overload/regcall props, Typed
// module) for the scalar fragment, or an ErrQuickUnsupported-wrapped error
// when the module needs the full solver. Registry calls resolve against the
// process-wide default registry; engine-scoped compiles use QuickWith.
func Quick(mod *wir.Module, env *types.Env) error {
	return QuickWith(mod, env, fnreg.Default())
}

// QuickWith is Quick with an explicit function-registry namespace (the same
// contract as InferWith).
func QuickWith(mod *wir.Module, env *types.Env, reg *fnreg.Registry) error {
	// Presize the value-type table: one entry per param, instruction and phi
	// is the exact steady state, and growth rehashes cost a measurable slice
	// of the whole baseline compile.
	nv := 0
	for _, f := range mod.Funcs {
		nv += len(f.Params)
		for _, b := range f.Blocks {
			nv += len(b.Instrs) + len(b.Phis)
		}
	}
	q := &quick{
		env:  env,
		reg:  reg,
		mod:  mod,
		ty:   make(map[wir.Value]types.Type, nv),
		rets: make(map[*wir.Function]types.Type, len(mod.Funcs)),
	}
	for _, f := range mod.Funcs {
		for _, p := range f.Params {
			if p.Ty == nil {
				return quickErr("%s: parameter %s has no type annotation", f.Name, p.Name())
			}
			if !quickScalar(p.Ty) {
				return quickErr("%s: parameter %s : %s is not machine-scalar", f.Name, p.Name(), p.Ty)
			}
			q.ty[p] = p.Ty
		}
		rt, err := q.seedReturn(f)
		if err != nil {
			return err
		}
		if rt != nil {
			q.rets[f] = rt
		}
	}
	for _, f := range mod.Funcs {
		if err := q.annotate(f); err != nil {
			return err
		}
	}
	return q.writeBack()
}

// quickScalar reports whether t is one of the unboxed scalar classes the
// stencil tier covers.
func quickScalar(t types.Type) bool {
	switch t {
	case types.TInt64, types.TReal64, types.TComplex, types.TBool:
		return true
	}
	return false
}

func quickScalarOrVoid(t types.Type) bool { return t == types.TVoid || quickScalar(t) }

// classify returns a constant's fixed type (when annotated or structural)
// or its adaptable literal class.
func classify(c *wir.Const) (types.Type, litClass) {
	if c.Ty != nil {
		return c.Ty, litNone
	}
	switch x := c.Expr.(type) {
	case *expr.Integer:
		if x.IsMachine() {
			return nil, litInt
		}
	case *expr.Real, *expr.Rational:
		return nil, litReal
	default:
		if _, isBool := expr.TruthValue(c.Expr); isBool {
			return types.TBool, litNone
		}
	}
	return nil, litNone
}

// litAdmits reports whether a literal class can materialise at type t.
func litAdmits(l litClass, t types.Type) bool {
	switch l {
	case litInt:
		return t == types.TInt64 || t == types.TReal64 || t == types.TComplex
	case litReal:
		return t == types.TReal64 || t == types.TComplex
	}
	return false
}

func litDefault(l litClass) types.Type {
	if l == litReal {
		return types.TReal64
	}
	return types.TInt64
}

// commitConst fixes a literal's type and records it for write-back.
func (q *quick) commitConst(c *wir.Const, t types.Type) {
	c.Ty = t
	q.consts = append(q.consts, c)
}

// tyOf returns a value's known type, or (nil, class) for an untyped
// literal that will adapt to its context.
func (q *quick) tyOf(v wir.Value) (types.Type, litClass, error) {
	if t, ok := q.ty[v]; ok {
		return t, litNone, nil
	}
	c, isConst := v.(*wir.Const)
	if !isConst {
		return nil, litNone, quickErr("value %s used before it is typed", v.Name())
	}
	t, l := classify(c)
	if t == nil && l == litNone {
		return nil, litNone, quickErr("constant %s is not machine-scalar", expr.InputForm(c.Expr))
	}
	return t, l, nil
}

// coerce types v against an expected ground type: known types must match
// exactly, literals adapt (and are committed) when admissible.
func (q *quick) coerce(v wir.Value, want types.Type) error {
	t, l, err := q.tyOf(v)
	if err != nil {
		return err
	}
	if t != nil {
		if !types.Equal(t, want) {
			return quickErr("%s : %s where %s is required", v.Name(), t, want)
		}
		// Structurally typed literals (True/False) know their type without
		// carrying it; codegen reads Const.Ty, so commit it here.
		if c, isConst := v.(*wir.Const); isConst && c.Ty == nil {
			q.commitConst(c, want)
		}
		return nil
	}
	if !litAdmits(l, want) {
		return quickErr("literal %s cannot adapt to %s", v.Name(), want)
	}
	q.commitConst(v.(*wir.Const), want)
	return nil
}

// seedReturn guesses a function's return type from its return sites before
// the pass runs, so recursive calls can be typed on the way down. Literal
// and parameter return sites anchor the type directly; a returned phi is
// traversed into its arguments (the If[base, …, recurse] shape every
// synthesized DownValues definition has — the base cases anchor it). A nil
// seed is not an error: non-recursive functions type their return lazily at
// the first OpReturn. The pass verifies every return against the seed
// afterwards; a wrong guess is a quick-inference failure (fall back to the
// solver), never wrong code.
func (q *quick) seedReturn(f *wir.Function) (types.Type, error) {
	if f.RetTy != nil {
		if !quickScalarOrVoid(f.RetTy) {
			return nil, quickErr("%s returns %s", f.Name, f.RetTy)
		}
		return f.RetTy, nil
	}
	var seed types.Type
	sawReturn := false
	merge := func(t types.Type) {
		switch {
		case seed == nil:
			seed = t
		case types.Equal(seed, t):
		case seed == types.TInt64 && t == types.TReal64:
			seed = types.TReal64 // widen along the numeric tower
		case seed == types.TReal64 && t == types.TInt64:
		case t == types.TComplex && (seed == types.TInt64 || seed == types.TReal64):
			seed = types.TComplex
		}
	}
	visited := map[*wir.Instr]bool{}
	var mergeValue func(v wir.Value)
	mergeValue = func(v wir.Value) {
		switch x := v.(type) {
		case *wir.Param:
			if x.Ty != nil {
				merge(x.Ty)
			}
		case *wir.Const:
			if t, l, err := q.tyOf(x); err == nil {
				if t != nil {
					merge(t)
				} else {
					merge(litDefault(l))
				}
			}
		case *wir.Instr:
			if x.Op == wir.OpPhi && !visited[x] {
				visited[x] = true
				for _, a := range x.Args {
					mergeValue(a)
				}
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != wir.OpReturn {
				continue
			}
			sawReturn = true
			if len(in.Args) == 0 {
				merge(types.TVoid)
				continue
			}
			mergeValue(in.Args[0])
		}
	}
	if !sawReturn {
		return nil, quickErr("%s has no return", f.Name)
	}
	if seed != nil && !quickScalarOrVoid(seed) {
		return nil, quickErr("%s: return seed %s is not machine-scalar", f.Name, seed)
	}
	return seed, nil
}

// annotate runs the forward pass over one function.
func (q *quick) annotate(f *wir.Function) error {
	for _, ann := range f.TypeAnnotations {
		if !quickScalar(ann.Ty) {
			return quickErr("%s: Typed[… , %s] annotation is not machine-scalar", f.Name, ann.Ty)
		}
		if t, ok := q.ty[ann.Val]; ok {
			if !types.Equal(t, ann.Ty) {
				return quickErr("%s: annotation %s conflicts with %s", f.Name, ann.Ty, t)
			}
			continue
		}
		if c, isConst := ann.Val.(*wir.Const); isConst {
			if err := q.coerce(c, ann.Ty); err != nil {
				return err
			}
			continue
		}
		q.ty[ann.Val] = ann.Ty
	}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			if err := q.typePhi(phi); err != nil {
				return err
			}
		}
		for _, in := range b.Instrs {
			if err := q.typeInstr(f, in); err != nil {
				return err
			}
		}
	}
	// Verify loop-carried phi arguments typed after their phi.
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			for _, a := range phi.Args {
				if err := q.coerce(a, phi.Ty); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// typePhi types a phi from its first already-known argument; back-edge
// arguments are verified after the pass.
func (q *quick) typePhi(phi *wir.Instr) error {
	if t, ok := q.ty[phi]; ok { // pre-seeded by a Typed annotation
		phi.Ty = t
		return nil
	}
	for _, a := range phi.Args {
		t, _, err := q.tyOf(a)
		if err != nil {
			return err
		}
		if t == nil {
			continue // adaptable literal; resolved by the phi's own type
		}
		if !quickScalar(t) {
			return quickErr("phi %s : %s", phi.Name(), t)
		}
		phi.Ty = t
		q.ty[phi] = t
		return nil
	}
	// All-literal phi: default by the widest literal class present.
	cls := litNone
	for _, a := range phi.Args {
		_, l, err := q.tyOf(a)
		if err != nil {
			return err
		}
		if l > cls {
			cls = l
		}
	}
	if cls == litNone {
		return quickErr("phi %s has no typed argument", phi.Name())
	}
	phi.Ty = litDefault(cls)
	q.ty[phi] = phi.Ty
	return nil
}

func (q *quick) typeInstr(f *wir.Function, in *wir.Instr) error {
	switch in.Op {
	case wir.OpAbortCheck, wir.OpBranch:
		in.Ty = types.TVoid
		return nil
	case wir.OpCondBranch:
		in.Ty = types.TVoid
		return q.coerce(in.Args[0], types.TBool)
	case wir.OpReturn:
		in.Ty = types.TVoid
		want, known := q.rets[f]
		if len(in.Args) == 0 {
			if known && want != types.TVoid {
				return quickErr("%s: empty return where %s is required", f.Name, want)
			}
			q.rets[f] = types.TVoid
			return nil
		}
		if !known {
			// Unseeded (non-recursive) function: the first return site fixes
			// the type. By this point the returned value is already typed —
			// it dominates the return — unless it is a bare literal.
			t, l, err := q.tyOf(in.Args[0])
			if err != nil {
				return err
			}
			if t == nil {
				t = litDefault(l)
			}
			if !quickScalar(t) {
				return quickErr("%s returns %s", f.Name, t)
			}
			q.rets[f] = t
			want = t
		}
		if want == types.TVoid {
			// A value in statement position; tolerated by the solver,
			// rejected here to keep the pass single-direction.
			return quickErr("%s: valued return in a Void function", f.Name)
		}
		return q.coerce(in.Args[0], want)
	case wir.OpCall:
		return q.typeCall(f, in)
	}
	return quickErr("%s: op %d is outside the baseline fragment", f.Name, in.Op)
}

// typeCall resolves one call: module function, native-backed builtin
// overload, or registry entry — the same order the solver uses.
func (q *quick) typeCall(f *wir.Function, in *wir.Instr) error {
	if target := q.mod.FuncByName(in.Callee); target != nil {
		if len(in.Args) != len(target.Params) {
			return quickErr("%s: %s takes %d arguments, got %d", f.Name, in.Callee, len(target.Params), len(in.Args))
		}
		for j, a := range in.Args {
			if err := q.coerce(a, target.Params[j].Ty); err != nil {
				return err
			}
		}
		rt, known := q.rets[target]
		if !known {
			// A recursive (or forward) call whose target could not be
			// seeded: only the solver can close that cycle.
			return quickErr("%s: call to %s before its return type is known", f.Name, in.Callee)
		}
		in.Ty = rt
		q.ty[in] = in.Ty
		return nil
	}
	switch in.Callee {
	case "Native`List", "Native`KernelApply":
		return quickErr("%s: %s is outside the baseline fragment", f.Name, in.Callee)
	case "Compile`PatternMiss":
		// A dispatch-tree miss leaf (internal/patcomp) diverges, so its
		// declared result is a free type variable — which a forward-only
		// pass cannot solve. Every miss sits in tail position of the
		// synthesized tree, so its type is the function's return type; the
		// seed (anchored by the live leaves) supplies it. An unseeded
		// function falls back to the solver.
		rt, known := q.rets[f]
		if !known || !quickScalar(rt) {
			return quickErr("%s: pattern-miss leaf before the return type is known", f.Name)
		}
		if len(in.Args) != 1 {
			return quickErr("%s: Compile`PatternMiss takes 1 operand", f.Name)
		}
		if err := q.coerce(in.Args[0], types.TInt64); err != nil {
			return err
		}
		if defs := q.env.Lookup(in.Callee); len(defs) > 0 {
			in.SetProp("overload", defs[0])
		}
		in.SetProp("calltype", &types.Fn{Params: []types.Type{types.TInt64}, Ret: rt})
		in.Ty = rt
		q.ty[in] = in.Ty
		return nil
	}
	if defs := q.env.Lookup(in.Callee); len(defs) > 0 {
		return q.selectOverload(f, in, defs)
	}
	if ent, ok := q.reg.Lookup(in.Callee); ok {
		sig := ent.Sig()
		if len(sig.Params) != len(in.Args) {
			return quickErr("%s: registry function %s takes %d arguments, got %d", f.Name, in.Callee, len(sig.Params), len(in.Args))
		}
		for j, a := range in.Args {
			if !quickScalar(sig.Params[j]) {
				return quickErr("%s: registry signature %s is not machine-scalar", f.Name, sig)
			}
			if err := q.coerce(a, sig.Params[j]); err != nil {
				return err
			}
		}
		if !quickScalarOrVoid(sig.Ret) {
			return quickErr("%s: registry result %s is not machine-scalar", f.Name, sig.Ret)
		}
		in.SetProp("regcall", ent)
		in.Ty = sig.Ret
		q.ty[in] = in.Ty
		return nil
	}
	return quickErr("%s: unknown function %s", f.Name, in.Callee)
}

// selectOverload picks the first declaration-ranked native overload whose
// ground parameters match the operands, letting literals adapt. This is
// the eager image of the solver's canonical ordering: with all non-literal
// operands ground there is nothing to stay speculative about.
func (q *quick) selectOverload(f *wir.Function, in *wir.Instr, defs []*types.FuncDef) error {
	argTys := make([]types.Type, len(in.Args))
	argLit := make([]litClass, len(in.Args))
	for j, a := range in.Args {
		t, l, err := q.tyOf(a)
		if err != nil {
			return err
		}
		argTys[j], argLit[j] = t, l
	}
next:
	for _, d := range defs {
		if d.Native == "" {
			// Impl-backed overloads need sub-compilation (function
			// resolution); the baseline tier only patches native stencils.
			continue
		}
		// Fast paths for the two declaration shapes that cover nearly every
		// scalar primitive (monomorphic, and single-variable class-qualified
		// like (a, a) -> a ∈ Number): no instantiation, no substitution, no
		// allocation. Declarations outside both shapes take the general
		// instantiate-and-unify path below.
		if viable, handled := q.fastOverload(in, d, argTys, argLit); handled {
			if viable {
				return nil
			}
			continue
		}
		if q.u == nil {
			q.u = types.NewUnifier()
		}
		body, quals := q.u.Instantiate(d.Type)
		fn, ok := body.(*types.Fn)
		if !ok || len(fn.Params) != len(in.Args) {
			continue
		}
		mark := q.u.Mark()
		bind := q.u.Unify
		undo := func() { q.u.Undo(mark) }
		// Ground operands first; they bind the overload's variables.
		for j, t := range argTys {
			if t == nil {
				continue
			}
			if !bind(fn.Params[j], t) {
				undo()
				continue next
			}
		}
		// Literals: adapt to the (now substituted) parameter, defaulting
		// unconstrained variables exactly as the solver's literal chain.
		for j, l := range argLit {
			if argTys[j] != nil {
				continue
			}
			pt := q.u.Zonk(fn.Params[j])
			if _, isVar := pt.(*types.Var); isVar {
				if !bind(pt, litDefault(l)) {
					undo()
					continue next
				}
				pt = litDefault(l)
			}
			if !litAdmits(l, pt) {
				undo()
				continue next
			}
		}
		for _, qu := range quals {
			t := q.u.Zonk(qu.Var)
			if !types.IsGround(t) || !q.env.MemberOf(t, qu.Class) {
				undo()
				continue next
			}
		}
		ret := q.u.Zonk(fn.Ret)
		if !types.IsGround(ret) || !quickScalarOrVoid(ret) {
			undo()
			continue next
		}
		// Commit: literal types, result type, and the overload choice the
		// backend reads the native id from.
		for j, t := range argTys {
			if t != nil {
				continue
			}
			pt := q.u.Zonk(fn.Params[j])
			q.commitConst(in.Args[j].(*wir.Const), pt)
		}
		in.Ty = ret
		q.ty[in] = ret
		in.SetProp("overload", d)
		in.SetProp("calltype", q.u.Zonk(fn))
		return nil
	}
	return quickErr("%s: no native overload of %s matches", f.Name, in.Callee)
}

// fastOverload tries to match one overload without the substitution
// machinery. handled=false means the declaration's shape is outside both
// fast cases and the caller must use the general path; handled=true with
// viable=false means the overload definitively does not match these
// operands (same verdict the general path would reach). On a match the
// overload is committed exactly as the general path commits it.
func (q *quick) fastOverload(in *wir.Instr, d *types.FuncDef, argTys []types.Type, argLit []litClass) (viable, handled bool) {
	commit := func(fn *types.Fn) {
		for j, t := range argTys {
			if t == nil {
				q.commitConst(in.Args[j].(*wir.Const), fn.Params[j])
			}
		}
		in.Ty = fn.Ret
		q.ty[in] = fn.Ret
		in.SetProp("overload", d)
		in.SetProp("calltype", fn)
	}

	// Monomorphic declaration: direct comparison.
	if fn, isFn := d.Type.(*types.Fn); isFn {
		if !types.IsGround(fn) {
			return false, false
		}
		if len(fn.Params) != len(in.Args) || !quickScalarOrVoid(fn.Ret) {
			return false, true
		}
		for j, t := range argTys {
			if t != nil {
				if !types.Equal(t, fn.Params[j]) {
					return false, true
				}
			} else if !litAdmits(argLit[j], fn.Params[j]) {
				return false, true
			}
		}
		commit(fn)
		return true, true
	}

	// Single-variable scheme, e.g. TypeForAll[{a}, {a ∈ Number},
	// {a, a} -> a]: every parameter is either that variable or ground, all
	// qualifiers constrain that variable, and the result is the variable or
	// ground. The variable binds to the first ground operand in a variable
	// position (the general path's unification order), or to the widest
	// literal default when every such operand is a literal.
	fa, isFA := d.Type.(*types.ForAll)
	if !isFA || len(fa.Vars) != 1 {
		return false, false
	}
	v := fa.Vars[0]
	fn, isFn := fa.Body.(*types.Fn)
	if !isFn {
		return false, false
	}
	for _, qu := range fa.Quals {
		if qu.Var.ID != v.ID {
			return false, false
		}
	}
	if len(fn.Params) != len(in.Args) {
		return false, true
	}
	var bind types.Type
	cls := litNone
	sawVar := false
	for j, p := range fn.Params {
		if pv, isVar := p.(*types.Var); isVar {
			if pv.ID != v.ID {
				return false, false
			}
			sawVar = true
			if argTys[j] != nil {
				if bind == nil {
					bind = argTys[j]
				} else if !types.Equal(bind, argTys[j]) {
					return false, true
				}
			} else if argLit[j] > cls {
				cls = argLit[j]
			}
			continue
		}
		if !types.IsGround(p) {
			return false, false
		}
	}
	if !sawVar {
		return false, false // result-only variable: never groundable here
	}
	if bind == nil {
		if cls == litNone {
			return false, false
		}
		bind = litDefault(cls)
	}
	// Every operand must admit its (now concrete) parameter type.
	params := make([]types.Type, len(fn.Params))
	for j, p := range fn.Params {
		pt := p
		if _, isVar := p.(*types.Var); isVar {
			pt = bind
		}
		params[j] = pt
		if argTys[j] != nil {
			if !types.Equal(argTys[j], pt) {
				return false, true
			}
		} else if !litAdmits(argLit[j], pt) {
			return false, true
		}
	}
	for _, qu := range fa.Quals {
		if !q.env.MemberOf(bind, qu.Class) {
			return false, true
		}
	}
	ret := fn.Ret
	if rv, isVar := ret.(*types.Var); isVar {
		if rv.ID != v.ID {
			return false, false
		}
		ret = bind
	} else if !types.IsGround(ret) {
		return false, false
	}
	if !quickScalarOrVoid(ret) {
		return false, true
	}
	commit(&types.Fn{Params: params, Ret: ret})
	return true, true
}

// writeBack finalises the module: function signatures, literal
// normalisation, and the Typed marker codegen requires.
func (q *quick) writeBack() error {
	for _, c := range q.consts {
		normaliseConst(c)
	}
	for _, f := range q.mod.Funcs {
		if q.rets[f] == nil {
			return quickErr("%s: return type never resolved", f.Name)
		}
		f.RetTy = q.rets[f]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Ty == nil {
					return quickErr("%s: instruction %s left untyped", f.Name, in.Name())
				}
			}
			for _, phi := range b.Phis {
				if phi.Ty == nil {
					return quickErr("%s: phi %s left untyped", f.Name, phi.Name())
				}
			}
		}
	}
	q.mod.Typed = true
	return nil
}
