package kernel

import (
	"fmt"

	"wolfc/internal/expr"
	"wolfc/internal/pattern"
)

func (k *Kernel) installControl() {
	k.Register("If", HoldRest, biIf)
	k.Register("While", HoldAll, biWhile)
	k.Register("For", HoldAll, biFor)
	k.Register("Do", HoldAll, biDo)
	k.Register("CompoundExpression", HoldAll, biCompound)
	k.Register("Module", HoldAll, biModule)
	k.Register("Block", HoldAll, biBlock)
	k.Register("With", HoldAll, biWith)
	k.Register("Set", HoldFirst, biSet)
	k.Register("SetDelayed", HoldAll, biSetDelayed)
	k.Register("Unset", HoldFirst, biUnset)
	k.Register("Clear", HoldAll, biClear)
	k.Register("Increment", HoldFirst, biIncrement)
	k.Register("Decrement", HoldFirst, biDecrement)
	k.Register("AddTo", HoldFirst, biAddTo)
	k.Register("SubtractFrom", HoldFirst, biSubtractFrom)
	k.Register("TimesBy", HoldFirst, biTimesBy)
	k.Register("DivideBy", HoldFirst, biDivideBy)
	k.Register("And", HoldAll|Flat, biAnd)
	k.Register("Or", HoldAll|Flat, biOr)
	k.Register("Not", 0, biNot)
	k.Register("TrueQ", 0, biTrueQ)
	k.Register("Break", 0, func(k *Kernel, n *expr.Normal) (expr.Expr, bool) { panic(breakPanic{}) })
	k.Register("Continue", 0, func(k *Kernel, n *expr.Normal) (expr.Expr, bool) { panic(continuePanic{}) })
	k.Register("Return", 0, biReturn)
	k.Register("Throw", 0, biThrow)
	k.Register("Catch", HoldAll, biCatch)
	k.Register("Abort", 0, func(k *Kernel, n *expr.Normal) (expr.Expr, bool) { panic(abortPanic{}) })
	k.Register("CheckAbort", HoldAll, biCheckAbort)
	k.Register("Print", 0, biPrint)
	k.Register("Hold", HoldAll, inert)
	k.Register("HoldComplete", HoldAll, inert)
	k.Register("Sequence", SequenceHold, inert)
	k.Register("Identity", 0, biIdentity)
	k.Register("Typed", HoldAll, inert) // compiler annotation: inert to the interpreter
	k.Register("KernelFunction", HoldAll, inert)
	// KernelFunction[f][args] is f[args]: what compiled code's escape to the
	// interpreter (F9) evaluates, so an F2 re-run of the call does too.
	k.RegisterApplier("KernelFunction", func(k *Kernel, head *expr.Normal, args []expr.Expr) (expr.Expr, bool) {
		if head.Len() != 1 {
			return nil, false
		}
		return k.Eval(expr.New(head.Arg(1), args...)), true
	})
	k.Register("Echo", 0, biEcho)
}

// inert marks system symbols whose expressions never rewrite (containers).
func inert(k *Kernel, n *expr.Normal) (expr.Expr, bool) { return n, false }

func biIf(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 2 || n.Len() > 4 {
		return n, false
	}
	cond := n.Arg(1)
	if v, isBool := expr.TruthValue(cond); isBool {
		if v {
			return k.Eval(n.Arg(2)), true
		}
		if n.Len() >= 3 {
			return k.Eval(n.Arg(3)), true
		}
		return expr.SymNull, true
	}
	if n.Len() == 4 {
		return k.Eval(n.Arg(4)), true // the "neither" branch
	}
	return n, false
}

// loopBody evaluates a loop body, converting Continue/Break sentinels;
// returns false when Break fired.
func (k *Kernel) loopBody(body expr.Expr) (cont bool) {
	defer func() {
		switch r := recover(); r.(type) {
		case nil:
		case continuePanic:
			cont = true
		case breakPanic:
			cont = false
		default:
			panic(r)
		}
	}()
	k.Eval(body)
	return true
}

func biWhile(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 1 || n.Len() > 2 {
		return n, false
	}
	body := expr.Expr(expr.SymNull)
	if n.Len() == 2 {
		body = n.Arg(2)
	}
	for {
		t, isBool := expr.TruthValue(k.Eval(n.Arg(1)))
		if !isBool || !t {
			return expr.SymNull, true
		}
		if !k.loopBody(body) {
			return expr.SymNull, true
		}
	}
}

func biFor(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 3 || n.Len() > 4 {
		return n, false
	}
	k.Eval(n.Arg(1))
	body := expr.Expr(expr.SymNull)
	if n.Len() == 4 {
		body = n.Arg(4)
	}
	for {
		t, isBool := expr.TruthValue(k.Eval(n.Arg(2)))
		if !isBool || !t {
			return expr.SymNull, true
		}
		if !k.loopBody(body) {
			return expr.SymNull, true
		}
		k.Eval(n.Arg(3))
	}
}

func biDo(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	k.iterate(n.Arg(2), func(bind func(expr.Expr) expr.Expr) bool {
		return k.loopBody(bind(n.Arg(1)))
	})
	return expr.SymNull, true
}

// iterate runs fn once per iterator value. The iterator spec (already held)
// may be n, {n}, {i, n}, {i, a, b}, or {i, a, b, step}. fn receives a binder
// that substitutes the loop variable into an expression; fn returning false
// stops the iteration (Break).
func (k *Kernel) iterate(spec expr.Expr, fn func(bind func(expr.Expr) expr.Expr) bool) {
	var name *expr.Symbol
	var lo, hi, step expr.Expr
	identity := func(e expr.Expr) expr.Expr { return e }

	if l, ok := expr.IsNormal(spec, expr.SymList); ok {
		switch l.Len() {
		case 1:
			lo, hi, step = expr.FromInt64(1), k.Eval(l.Arg(1)), expr.FromInt64(1)
		case 2:
			name, _ = l.Arg(1).(*expr.Symbol)
			lo, hi, step = expr.FromInt64(1), k.Eval(l.Arg(2)), expr.FromInt64(1)
		case 3:
			name, _ = l.Arg(1).(*expr.Symbol)
			lo, hi, step = k.Eval(l.Arg(2)), k.Eval(l.Arg(3)), expr.FromInt64(1)
		case 4:
			name, _ = l.Arg(1).(*expr.Symbol)
			lo, hi, step = k.Eval(l.Arg(2)), k.Eval(l.Arg(3)), k.Eval(l.Arg(4))
		default:
			k.errorf("iterator: malformed %s", expr.InputForm(spec))
		}
		if l.Len() >= 2 && name == nil {
			k.errorf("iterator: variable expected in %s", expr.InputForm(spec))
		}
		// {i, {v1, v2, ...}} — explicit value list.
		if l.Len() == 2 {
			if vals, ok := expr.IsNormal(hi, expr.SymList); ok {
				for _, v := range vals.Args() {
					v := v
					bind := func(e expr.Expr) expr.Expr {
						return pattern.Substitute(e, pattern.Bindings{name: v})
					}
					if !fn(bind) {
						return
					}
				}
				return
			}
		}
	} else {
		lo, hi, step = expr.FromInt64(1), k.Eval(spec), expr.FromInt64(1)
	}

	// Machine-integer fast path.
	loI, okLo := lo.(*expr.Integer)
	hiI, okHi := hi.(*expr.Integer)
	stI, okSt := step.(*expr.Integer)
	if okLo && okHi && okSt && loI.IsMachine() && hiI.IsMachine() && stI.IsMachine() && stI.Int64() != 0 {
		st := stI.Int64()
		for v := loI.Int64(); (st > 0 && v <= hiI.Int64()) || (st < 0 && v >= hiI.Int64()); v += st {
			val := expr.FromInt64(v)
			bind := identity
			if name != nil {
				bind = func(e expr.Expr) expr.Expr {
					return pattern.Substitute(e, pattern.Bindings{name: val})
				}
			}
			if !fn(bind) {
				return
			}
		}
		return
	}

	// General numeric path: v = lo + j*step while (v - hi)*sign(step) <= 0.
	stF, ok := toFloat(step)
	if !ok || stF == 0 {
		k.errorf("iterator: bad step in %s", expr.InputForm(spec))
	}
	loF, ok1 := toFloat(lo)
	hiF, ok2 := toFloat(hi)
	if !ok1 || !ok2 {
		k.errorf("iterator: non-numeric bounds in %s", expr.InputForm(spec))
	}
	count := int((hiF-loF)/stF) + 1
	if count < 0 {
		count = 0
	}
	for j := 0; j < count; j++ {
		val := numAdd(lo, numMul(step, expr.FromInt64(int64(j))))
		bind := identity
		if name != nil {
			v := val
			bind = func(e expr.Expr) expr.Expr {
				return pattern.Substitute(e, pattern.Bindings{name: v})
			}
		}
		if !fn(bind) {
			return
		}
	}
}

func biCompound(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	out := expr.Expr(expr.SymNull)
	for _, a := range n.Args() {
		out = k.Eval(a)
	}
	return out, true
}

// scopeVars parses a Module/Block/With variable list into names and optional
// initialisers.
func (k *Kernel) scopeVars(spec expr.Expr, construct string) (names []*expr.Symbol, inits []expr.Expr) {
	l, ok := expr.IsNormal(spec, expr.SymList)
	if !ok {
		k.errorf("%s: variable list expected, got %s", construct, expr.InputForm(spec))
	}
	for _, v := range l.Args() {
		switch x := v.(type) {
		case *expr.Symbol:
			names = append(names, x)
			inits = append(inits, nil)
		case *expr.Normal:
			if s, ok := expr.IsNormalN(x, expr.SymSet, 2); ok {
				nm, ok := s.Arg(1).(*expr.Symbol)
				if !ok {
					k.errorf("%s: symbol expected in %s", construct, expr.InputForm(v))
				}
				names = append(names, nm)
				inits = append(inits, s.Arg(2))
				continue
			}
			k.errorf("%s: invalid local %s", construct, expr.InputForm(v))
		default:
			k.errorf("%s: invalid local %s", construct, expr.InputForm(v))
		}
	}
	return names, inits
}

func biModule(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	names, inits := k.scopeVars(n.Arg(1), "Module")
	// Fresh names; initialisers are evaluated in the enclosing scope.
	b := pattern.Bindings{}
	var fresh []*expr.Symbol
	for i, nm := range names {
		f := k.freshName(nm.Name)
		fresh = append(fresh, f)
		b[nm] = f
		if inits[i] != nil {
			k.own[f] = k.Eval(inits[i])
		}
	}
	body := pattern.Substitute(n.Arg(2), b)
	out := k.Eval(body)
	// Module variables that escape keep their values; non-escaping ones are
	// garbage. Clearing unconditionally would break returned closures, so
	// only clear when the result does not mention the variable.
	for _, f := range fresh {
		escaped := false
		expr.Walk(out, func(e expr.Expr) bool {
			if e == f {
				escaped = true
			}
			return !escaped
		})
		if !escaped {
			delete(k.own, f)
		}
	}
	return out, true
}

func biBlock(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	names, inits := k.scopeVars(n.Arg(1), "Block")
	type saved struct {
		val expr.Expr
		had bool
	}
	savedVals := make([]saved, len(names))
	for i, nm := range names {
		v, had := k.own[nm]
		savedVals[i] = saved{v, had}
		if inits[i] != nil {
			k.own[nm] = k.Eval(inits[i])
		} else {
			delete(k.own, nm)
		}
	}
	defer func() {
		for i, nm := range names {
			if savedVals[i].had {
				k.own[nm] = savedVals[i].val
			} else {
				delete(k.own, nm)
			}
		}
	}()
	return k.Eval(n.Arg(2)), true
}

func biWith(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	names, inits := k.scopeVars(n.Arg(1), "With")
	b := pattern.Bindings{}
	for i, nm := range names {
		if inits[i] == nil {
			k.errorf("With: local %s needs a value", nm.Name)
		}
		b[nm] = k.Eval(inits[i])
	}
	return k.Eval(pattern.Substitute(n.Arg(2), b)), true
}

var (
	symPart    = expr.Sym("Part")
	symCondLHS = expr.Sym("Condition")
)

// peelLHSCondition splits a whole-LHS guarded target f[...] /; cond
// (possibly nested) into the inner call and a rewrap closure that restores
// the Condition wrappers around the argument-evaluated call, so the rule
// attaches to f rather than to Condition. /; binds tighter than = and :=,
// so `f[x_] /; cond := rhs` reaches Set/SetDelayed in exactly this shape.
// The condition tests are held unevaluated — they run at match time.
func peelLHSCondition(target *expr.Normal) (*expr.Normal, func(expr.Expr) expr.Expr) {
	var wraps []*expr.Normal
	cur := expr.Expr(target)
	for {
		c, ok := expr.IsNormalN(cur, symCondLHS, 2)
		if !ok {
			break
		}
		wraps = append(wraps, c)
		cur = c.Arg(1)
	}
	inner, ok := cur.(*expr.Normal)
	if !ok || len(wraps) == 0 {
		return target, func(e expr.Expr) expr.Expr { return e }
	}
	return inner, func(e expr.Expr) expr.Expr {
		for i := len(wraps) - 1; i >= 0; i-- {
			e = wraps[i].WithArgs(e, wraps[i].Arg(2))
		}
		return e
	}
}

func biSet(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	lhs, rhs := n.Arg(1), n.Arg(2)
	switch target := lhs.(type) {
	case *expr.Symbol:
		k.own[target] = rhs
		return rhs, true
	case *expr.Normal:
		if p, ok := expr.IsNormal(target, symPart); ok {
			return k.setPart(p, rhs), true
		}
		// f[pats] = rhs — an immediate definition (rhs already evaluated).
		call, rewrap := peelLHSCondition(target)
		if hs, ok := call.Head().(*expr.Symbol); ok {
			lhsEval := rewrap(k.evalPatternLHS(call))
			k.AddDownValue(hs, pattern.Rule{LHS: lhsEval, RHS: rhs})
			return rhs, true
		}
	}
	k.errorf("Set: cannot assign to %s", expr.InputForm(lhs))
	return nil, false
}

// evalPatternLHS evaluates the argument positions of a definition LHS so
// that e.g. f[n_, m] with m=3 defines f[n_, 3]; pattern constructs are kept.
func (k *Kernel) evalPatternLHS(lhs *expr.Normal) expr.Expr {
	args := make([]expr.Expr, lhs.Len())
	for i := 1; i <= lhs.Len(); i++ {
		a := lhs.Arg(i)
		if containsPattern(a) {
			args[i-1] = a
		} else {
			args[i-1] = k.Eval(a)
		}
	}
	return lhs.WithArgs(args...)
}

func containsPattern(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if n, ok := x.(*expr.Normal); ok {
			if h, ok := n.Head().(*expr.Symbol); ok {
				switch h.Name {
				case "Pattern", "Blank", "BlankSequence", "BlankNullSequence", "Condition", "Alternatives":
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// setPart implements a[[i, j, ...]] = v with the language's copy semantics:
// the symbol is rebound to a structurally updated copy, so other references
// to the old value are unaffected (paper F5).
func (k *Kernel) setPart(p *expr.Normal, rhs expr.Expr) expr.Expr {
	if p.Len() < 2 {
		k.errorf("Part assignment: index expected")
	}
	sym, ok := p.Arg(1).(*expr.Symbol)
	if !ok {
		k.errorf("Part assignment: symbol expected, got %s", expr.InputForm(p.Arg(1)))
	}
	cur, has := k.own[sym]
	if !has {
		k.errorf("Part assignment: %s has no value", sym.Name)
	}
	idxs := make([]int, 0, p.Len()-1)
	for i := 2; i <= p.Len(); i++ {
		iv, ok := k.Eval(p.Arg(i)).(*expr.Integer)
		if !ok || !iv.IsMachine() {
			k.errorf("Part assignment: machine integer index expected")
		}
		idxs = append(idxs, int(iv.Int64()))
	}
	k.own[sym] = k.updatePart(cur, idxs, rhs)
	return rhs
}

func (k *Kernel) updatePart(e expr.Expr, idxs []int, rhs expr.Expr) expr.Expr {
	if len(idxs) == 0 {
		return rhs
	}
	n, ok := e.(*expr.Normal)
	if !ok {
		k.errorf("Part assignment: %s is not subscriptable", expr.InputForm(e))
	}
	i := idxs[0]
	if i < 0 {
		i = n.Len() + 1 + i
	}
	if i < 1 || i > n.Len() {
		k.errorf("Part assignment: index %d out of range for length %d", idxs[0], n.Len())
	}
	args := append([]expr.Expr{}, n.Args()...)
	args[i-1] = k.updatePart(args[i-1], idxs[1:], rhs)
	return n.WithArgs(args...)
}

func biSetDelayed(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	lhs, rhs := n.Arg(1), n.Arg(2)
	switch target := lhs.(type) {
	case *expr.Symbol:
		k.own[target] = rhs
		return expr.SymNull, true
	case *expr.Normal:
		call, rewrap := peelLHSCondition(target)
		if hs, ok := call.Head().(*expr.Symbol); ok {
			k.AddDownValue(hs, pattern.Rule{LHS: rewrap(k.evalPatternLHS(call)), RHS: rhs})
			return expr.SymNull, true
		}
	}
	k.errorf("SetDelayed: cannot define %s", expr.InputForm(lhs))
	return nil, false
}

func biUnset(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if s, ok := n.Arg(1).(*expr.Symbol); ok {
		delete(k.own, s)
		return expr.SymNull, true
	}
	return n, false
}

func biClear(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	for _, a := range n.Args() {
		if s, ok := a.(*expr.Symbol); ok {
			delete(k.own, s)
			// Through the accessor so definition observers see the change
			// (the tiered-execution registry uninstalls compiled entries).
			k.ClearDownValues(s)
		}
	}
	return expr.SymNull, true
}

// mutateNumeric implements the in-place arithmetic forms on symbols.
func (k *Kernel) mutateNumeric(n *expr.Normal, name string, returnOld bool,
	op func(old expr.Expr) expr.Expr) (expr.Expr, bool) {
	if n.Len() < 1 {
		return n, false
	}
	s, ok := n.Arg(1).(*expr.Symbol)
	if !ok {
		k.errorf("%s: symbol expected, got %s", name, expr.InputForm(n.Arg(1)))
	}
	old, has := k.own[s]
	if !has {
		k.errorf("%s: %s has no value", name, s.Name)
	}
	old = k.Eval(old)
	updated := k.Eval(op(old))
	k.own[s] = updated
	if returnOld {
		return old, true
	}
	return updated, true
}

func biIncrement(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	return k.mutateNumeric(n, "Increment", true, func(old expr.Expr) expr.Expr {
		return expr.NewS("Plus", old, expr.FromInt64(1))
	})
}

func biDecrement(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	return k.mutateNumeric(n, "Decrement", true, func(old expr.Expr) expr.Expr {
		return expr.NewS("Plus", old, expr.FromInt64(-1))
	})
}

func biAddTo(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	rhs := k.Eval(n.Arg(2))
	return k.mutateNumeric(n, "AddTo", false, func(old expr.Expr) expr.Expr {
		return expr.NewS("Plus", old, rhs)
	})
}

func biSubtractFrom(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	rhs := k.Eval(n.Arg(2))
	return k.mutateNumeric(n, "SubtractFrom", false, func(old expr.Expr) expr.Expr {
		return expr.NewS("Subtract", old, rhs)
	})
}

func biTimesBy(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	rhs := k.Eval(n.Arg(2))
	return k.mutateNumeric(n, "TimesBy", false, func(old expr.Expr) expr.Expr {
		return expr.NewS("Times", old, rhs)
	})
}

func biDivideBy(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	rhs := k.Eval(n.Arg(2))
	return k.mutateNumeric(n, "DivideBy", false, func(old expr.Expr) expr.Expr {
		return expr.NewS("Divide", old, rhs)
	})
}

func biAnd(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	residual, short := evalLogical(k, n.Args(), false)
	if short {
		return expr.SymFalse, true
	}
	switch len(residual) {
	case 0:
		return expr.SymTrue, true
	case 1:
		return residual[0], true
	}
	out := expr.NewS("And", residual...)
	return out, !expr.SameQ(out, n)
}

func biOr(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	residual, short := evalLogical(k, n.Args(), true)
	if short {
		return expr.SymTrue, true
	}
	switch len(residual) {
	case 0:
		return expr.SymFalse, true
	case 1:
		return residual[0], true
	}
	out := expr.NewS("Or", residual...)
	return out, !expr.SameQ(out, n)
}

// evalLogical evaluates logical arguments left to right, short-circuiting on
// the given truth value and dropping the identity element.
func evalLogical(k *Kernel, args []expr.Expr, shortOn bool) (residual []expr.Expr, short bool) {
	for _, a := range args {
		v := k.Eval(a)
		if t, isBool := expr.TruthValue(v); isBool {
			if t == shortOn {
				return nil, true
			}
			continue
		}
		residual = append(residual, v)
	}
	return residual, false
}

func biNot(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	if t, isBool := expr.TruthValue(n.Arg(1)); isBool {
		return expr.Bool(!t), true
	}
	return n, false
}

func biTrueQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	t, isBool := expr.TruthValue(n.Arg(1))
	return expr.Bool(isBool && t), true
}

func biReturn(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	v := expr.Expr(expr.SymNull)
	if n.Len() >= 1 {
		v = n.Arg(1)
	}
	panic(returnPanic{value: v})
}

func biThrow(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 1 || n.Len() > 2 {
		return n, false
	}
	tag := expr.Expr(expr.SymNull)
	if n.Len() == 2 {
		tag = n.Arg(2)
	}
	panic(throwPanic{tag: tag, value: n.Arg(1)})
}

func biCatch(k *Kernel, n *expr.Normal) (out expr.Expr, applied bool) {
	if n.Len() < 1 || n.Len() > 2 {
		return n, false
	}
	defer func() {
		if r := recover(); r != nil {
			tp, ok := r.(throwPanic)
			if !ok {
				panic(r)
			}
			if n.Len() == 2 {
				if _, matches := pattern.MatchCond(k.Eval(n.Arg(2)), tp.tag, k.condEval); !matches {
					panic(r) // not ours; rethrow
				}
			}
			out, applied = tp.value, true
		}
	}()
	return k.Eval(n.Arg(1)), true
}

func biCheckAbort(k *Kernel, n *expr.Normal) (out expr.Expr, applied bool) {
	if n.Len() != 2 {
		return n, false
	}
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortPanic); !ok {
				panic(r)
			}
			k.ClearAbort()
			out, applied = k.Eval(n.Arg(2)), true
		}
	}()
	return k.Eval(n.Arg(1)), true
}

func biPrint(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	parts := make([]string, n.Len())
	for i, a := range n.Args() {
		if s, ok := a.(*expr.String); ok {
			parts[i] = s.V
		} else {
			parts[i] = expr.InputForm(a)
		}
	}
	fmt.Fprintln(k.Out, joinStrings(parts))
	return expr.SymNull, true
}

func biEcho(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() < 1 {
		return n, false
	}
	fmt.Fprintln(k.Out, expr.InputForm(n.Arg(1)))
	return n.Arg(1), true
}

func biIdentity(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	return n.Arg(1), true
}

func joinStrings(parts []string) string {
	out := ""
	for _, p := range parts {
		out += p
	}
	return out
}
