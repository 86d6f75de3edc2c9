package kernel

import (
	"math/big"

	"wolfc/internal/expr"
	"wolfc/internal/pattern"
)

func (k *Kernel) installSymbolic() {
	k.Register("Rule", 0, inert)
	k.Register("RuleDelayed", HoldRest, inert)
	k.Register("ReplaceAll", 0, biReplaceAll)
	k.Register("Replace", 0, biReplace)
	k.Register("MatchQ", 0, biMatchQ)
	k.Register("D", 0, biD)
	k.Register("Expand", 0, biExpand)
	k.Register("Variables", 0, biVariables)
	k.Register("Function", HoldAll, inert)
	k.Register("Slot", 0, inert)
	k.Register("Blank", 0, inert)
	k.Register("BlankSequence", 0, inert)
	k.Register("BlankNullSequence", 0, inert)
	k.Register("Pattern", HoldFirst, inert)
	k.Register("Condition", HoldRest, inert)
	k.Register("Alternatives", 0, inert)
	k.Register("NormalDistribution", 0, inert)
	k.Register("UniformDistribution", 0, inert)
	k.Register("DownValues", HoldAll, biDownValues)
	k.Register("OwnValues", HoldAll, biOwnValues)
}

// collectRules turns a rule or rule list into pattern rules.
func collectRules(e expr.Expr) ([]pattern.Rule, bool) {
	if l, ok := expr.IsNormal(e, expr.SymList); ok {
		var out []pattern.Rule
		for _, a := range l.Args() {
			rs, ok := collectRules(a)
			if !ok {
				return nil, false
			}
			out = append(out, rs...)
		}
		return out, true
	}
	if r, ok := expr.IsNormalN(e, expr.SymRule, 2); ok {
		return []pattern.Rule{{LHS: r.Arg(1), RHS: r.Arg(2)}}, true
	}
	if r, ok := expr.IsNormalN(e, expr.SymRuleDelayed, 2); ok {
		return []pattern.Rule{{LHS: r.Arg(1), RHS: r.Arg(2)}}, true
	}
	return nil, false
}

// biReplaceAll applies rules once to every subexpression, outermost first;
// the first matching rule wins and replaced subtrees are not re-examined.
func biReplaceAll(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	rules, ok := collectRules(n.Arg(2))
	if !ok {
		return n, false
	}
	var apply func(e expr.Expr) expr.Expr
	apply = func(e expr.Expr) expr.Expr {
		for _, r := range rules {
			if out, fired := r.Apply(e, k.condEval); fired {
				return out
			}
		}
		if t, ok := e.(*expr.Normal); ok {
			head := apply(t.Head())
			args := make([]expr.Expr, t.Len())
			for i := 1; i <= t.Len(); i++ {
				args[i-1] = apply(t.Arg(i))
			}
			return expr.New(head, args...)
		}
		return e
	}
	return k.Eval(apply(n.Arg(1))), true
}

// biReplace applies rules to the whole expression only (level 0).
func biReplace(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	rules, ok := collectRules(n.Arg(2))
	if !ok {
		return n, false
	}
	for _, r := range rules {
		if out, fired := r.Apply(n.Arg(1), k.condEval); fired {
			return k.Eval(out), true
		}
	}
	return n.Arg(1), true
}

func biMatchQ(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	return expr.Bool(k.matchQ(n.Arg(2), n.Arg(1))), true
}

// biD computes the symbolic partial derivative D[f, x] using the standard
// differentiation rules; it is what auto-compiling numeric solvers use to
// build Newton iterations (paper §1 FindRoot, §5 automatic differentiation).
func biD(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 2 {
		return n, false
	}
	x, ok := n.Arg(2).(*expr.Symbol)
	if !ok {
		// D[f, {x, n}] — iterated derivative.
		if spec, isList := expr.IsNormalN(n.Arg(2), expr.SymList, 2); isList {
			if xs, ok := spec.Arg(1).(*expr.Symbol); ok {
				if count, ok := spec.Arg(2).(*expr.Integer); ok && count.IsMachine() && count.Int64() >= 0 {
					out := n.Arg(1)
					for i := int64(0); i < count.Int64(); i++ {
						out = k.Eval(expr.NewS("D", out, xs))
					}
					return out, true
				}
			}
		}
		return n, false
	}
	d, ok := differentiate(n.Arg(1), x)
	if !ok {
		return n, false
	}
	return k.Eval(d), true
}

// differentiate returns the derivative of f with respect to x, or ok=false
// when a subexpression has no known rule.
func differentiate(f expr.Expr, x *expr.Symbol) (expr.Expr, bool) {
	one := expr.Expr(expr.FromInt64(1))
	zero := expr.Expr(expr.FromInt64(0))
	switch e := f.(type) {
	case *expr.Symbol:
		if e == x {
			return one, true
		}
		return zero, true
	case *expr.Integer, *expr.Real, *expr.Rational, *expr.Complex, *expr.String:
		return zero, true
	case *expr.Normal:
		head, ok := e.Head().(*expr.Symbol)
		if !ok {
			return nil, false
		}
		args := e.Args()
		switch head.Name {
		case "Plus":
			terms := make([]expr.Expr, len(args))
			for i, a := range args {
				d, ok := differentiate(a, x)
				if !ok {
					return nil, false
				}
				terms[i] = d
			}
			return expr.NewS("Plus", terms...), true
		case "Times":
			// Product rule generalised to n factors.
			var terms []expr.Expr
			for i := range args {
				d, ok := differentiate(args[i], x)
				if !ok {
					return nil, false
				}
				factors := append([]expr.Expr{d}, args[:i]...)
				factors = append(factors, args[i+1:]...)
				terms = append(terms, expr.NewS("Times", factors...))
			}
			return expr.NewS("Plus", terms...), true
		case "Subtract":
			if len(args) == 2 {
				d1, ok1 := differentiate(args[0], x)
				d2, ok2 := differentiate(args[1], x)
				if ok1 && ok2 {
					return expr.NewS("Subtract", d1, d2), true
				}
			}
			return nil, false
		case "Minus":
			if len(args) == 1 {
				d, ok := differentiate(args[0], x)
				if ok {
					return expr.NewS("Minus", d), true
				}
			}
			return nil, false
		case "Divide":
			if len(args) == 2 {
				// (u/v)' = (u'v - uv')/v^2
				du, ok1 := differentiate(args[0], x)
				dv, ok2 := differentiate(args[1], x)
				if ok1 && ok2 {
					num := expr.NewS("Subtract",
						expr.NewS("Times", du, args[1]),
						expr.NewS("Times", args[0], dv))
					return expr.NewS("Divide", num, expr.NewS("Power", args[1], expr.FromInt64(2))), true
				}
			}
			return nil, false
		case "Power":
			if len(args) == 2 {
				u, v := args[0], args[1]
				du, ok1 := differentiate(u, x)
				dv, ok2 := differentiate(v, x)
				if !ok1 || !ok2 {
					return nil, false
				}
				// General: u^v * (v' Log[u] + v u'/u)
				// Common case v constant: v u^(v-1) u'.
				if isConstIn(v, x) {
					return expr.NewS("Times", v,
						expr.NewS("Power", u, expr.NewS("Subtract", v, one)), du), true
				}
				return expr.NewS("Times",
					expr.NewS("Power", u, v),
					expr.NewS("Plus",
						expr.NewS("Times", dv, expr.NewS("Log", u)),
						expr.NewS("Times", v, expr.NewS("Divide", du, u)))), true
			}
			return nil, false
		case "Sin", "Cos", "Tan", "Exp", "Log", "Sqrt", "ArcTan", "ArcSin", "ArcCos":
			if len(args) != 1 {
				return nil, false
			}
			du, ok := differentiate(args[0], x)
			if !ok {
				return nil, false
			}
			u := args[0]
			var outer expr.Expr
			switch head.Name {
			case "Sin":
				outer = expr.NewS("Cos", u)
			case "Cos":
				outer = expr.NewS("Minus", expr.NewS("Sin", u))
			case "Tan":
				outer = expr.NewS("Power", expr.NewS("Cos", u), expr.FromInt64(-2))
			case "Exp":
				outer = expr.NewS("Exp", u)
			case "Log":
				outer = expr.NewS("Divide", one, u)
			case "Sqrt":
				outer = expr.NewS("Divide", one, expr.NewS("Times", expr.FromInt64(2), expr.NewS("Sqrt", u)))
			case "ArcTan":
				outer = expr.NewS("Divide", one,
					expr.NewS("Plus", one, expr.NewS("Power", u, expr.FromInt64(2))))
			case "ArcSin":
				outer = expr.NewS("Power",
					expr.NewS("Subtract", one, expr.NewS("Power", u, expr.FromInt64(2))),
					&expr.Rational{V: ratHalfNeg()})
			case "ArcCos":
				outer = expr.NewS("Minus", expr.NewS("Power",
					expr.NewS("Subtract", one, expr.NewS("Power", u, expr.FromInt64(2))),
					&expr.Rational{V: ratHalfNeg()}))
			}
			return expr.NewS("Times", outer, du), true
		}
		// Unknown function of a constant expression differentiates to zero.
		if isConstIn(f, x) {
			return zero, true
		}
		return nil, false
	}
	return nil, false
}

func isConstIn(e expr.Expr, x *expr.Symbol) bool {
	found := false
	expr.Walk(e, func(sub expr.Expr) bool {
		if sub == x {
			found = true
		}
		return !found
	})
	return !found
}

// biExpand distributes products over sums, one pass: Expand[(a+b)*c] gives
// a*c + b*c. Powers with small positive integer exponents are multiplied out.
func biExpand(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	return k.Eval(expandExpr(n.Arg(1))), true
}

func expandExpr(e expr.Expr) expr.Expr {
	t, ok := e.(*expr.Normal)
	if !ok {
		return e
	}
	head, ok := t.Head().(*expr.Symbol)
	if !ok {
		return e
	}
	switch head.Name {
	case "Plus":
		return expr.Map(expandExpr, t)
	case "Power":
		if t.Len() == 2 {
			if exp, ok := t.Arg(2).(*expr.Integer); ok && exp.IsMachine() && exp.Int64() >= 2 && exp.Int64() <= 16 {
				if _, isSum := expr.IsNormal(t.Arg(1), expr.Sym("Plus")); isSum {
					factors := make([]expr.Expr, exp.Int64())
					for i := range factors {
						factors[i] = t.Arg(1)
					}
					return expandExpr(expr.NewS("Times", factors...))
				}
			}
		}
		return e
	case "Times":
		// Distribute: find a Plus factor and multiply through.
		for i := 1; i <= t.Len(); i++ {
			if sum, ok := expr.IsNormal(t.Arg(i), expr.Sym("Plus")); ok {
				others := make([]expr.Expr, 0, t.Len()-1)
				others = append(others, t.Args()[:i-1]...)
				others = append(others, t.Args()[i:]...)
				terms := make([]expr.Expr, sum.Len())
				for j := 1; j <= sum.Len(); j++ {
					terms[j-1] = expandExpr(expr.NewS("Times",
						append([]expr.Expr{sum.Arg(j)}, others...)...))
				}
				return expr.NewS("Plus", terms...)
			}
		}
		return e
	}
	return e
}

func biVariables(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	var out []expr.Expr
	seen := map[*expr.Symbol]bool{}
	expr.Walk(n.Arg(1), func(e expr.Expr) bool {
		if s, ok := e.(*expr.Symbol); ok && !seen[s] {
			if !k.HasBuiltin(s) && s != expr.SymTrue && s != expr.SymFalse && s != expr.SymNull {
				seen[s] = true
				out = append(out, s)
			}
		}
		return true
	})
	sortCanonical(out)
	return expr.List(out...), true
}

func biDownValues(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	s, ok := n.Arg(1).(*expr.Symbol)
	if !ok {
		return n, false
	}
	rules := k.down[s]
	out := make([]expr.Expr, len(rules))
	for i, r := range rules {
		out[i] = expr.New(expr.SymRuleDelayed, expr.NewS("HoldPattern", r.LHS), r.RHS)
	}
	return expr.List(out...), true
}

func biOwnValues(k *Kernel, n *expr.Normal) (expr.Expr, bool) {
	if n.Len() != 1 {
		return n, false
	}
	s, ok := n.Arg(1).(*expr.Symbol)
	if !ok {
		return n, false
	}
	if v, has := k.own[s]; has {
		return expr.List(expr.New(expr.SymRuleDelayed, expr.NewS("HoldPattern", s), v)), true
	}
	return expr.List(), true
}

func ratHalfNeg() *big.Rat { return big.NewRat(-1, 2) }
