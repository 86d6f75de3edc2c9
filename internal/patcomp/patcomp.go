// Package patcomp compiles a symbol's ordered DownValue rules into a
// decision tree over the tests the pattern matcher would perform — literal
// discrimination, head restrictions, list destructuring, and /; guards —
// specialised against the argument kinds observed at dispatch (ISSUE 10).
//
// The output is a Function[{Typed[...]...}, tree] expression the normal
// compile pipeline lowers to TWIR, so both the optimising backend and (for
// scalar-only trees) the copy-and-patch stencil tier compile it unchanged.
// The tree preserves the interpreter's dispatch semantics exactly:
//
//   - Rules are tried in the kernel's stored order (most specific first);
//     a rule's own tests run in the matcher's left-to-right order, with
//     its /; guards evaluated at the position the matcher would evaluate
//     them. Pure structural tests may be skipped when an accumulated fact
//     already decides them, but never reordered across a guard.
//   - Head restrictions (_Integer, _Real, _List) resolve statically: the
//     dispatch sketch fixes every argument's head, so a mismatched rule is
//     dead for this specialisation and is pruned — exactly the rules the
//     matcher would reject on the same arguments. A rule is only pruned
//     silently when no guard precedes the dead test; otherwise the whole
//     symbol is rejected, since pruning would skip a guard evaluation the
//     interpreter performs.
//   - A tree path no rule covers ends in Compile`PatternMiss, which
//     unwinds to the tier dispatcher as an F2 guard miss: the interpreter
//     rules take over and produce whatever an uncompiled kernel would.
//
// Rejection is always safe — an unsupported shape simply stays on the
// interpreter tier.
package patcomp

import (
	"fmt"

	"wolfc/internal/expr"
	"wolfc/internal/pattern"
	"wolfc/internal/types"
)

// treeBudget bounds the synthesized tree (If nodes plus leaves). Literal
// chains grow linearly, so real definitions sit far below this; the bound
// exists because pathological rule sets can force test duplication.
const treeBudget = 512

// proj identifies a value the tree can test: a whole argument (elem 0) or
// one element of a destructured list argument (1-based Part index).
type proj struct {
	arg  int
	elem int
}

type testKind int

const (
	tLen   testKind = iota // Length[arg] == n
	tLit                   // proj == literal (SameQ on machine scalars)
	tEqVar                 // repeated pattern variable: proj == earlier proj
	tGuard                 // a /; condition (barrier: never skipped or shared)
)

// test is one runtime check of a rule, in matcher order.
type test struct {
	kind  testKind
	p     proj
	n     int       // tLen
	lit   expr.Expr // tLit
	q     proj      // tEqVar: the earlier occurrence
	guard expr.Expr // tGuard, pattern variables already substituted
}

// rule is one live (not statically dead) DownValue rule, lowered to its
// test sequence and substituted right-hand side.
type rule struct {
	tests []test
	rhs   expr.Expr
}

// Def is an analyzed, compilable pattern-dispatch definition.
type Def struct {
	Sym   *expr.Symbol
	Kinds []types.Type

	params []*expr.Symbol
	rules  []rule
	body   expr.Expr
	scan   []expr.Expr // live-rule RHSes and guards, for dependency walks
}

// Analyze specialises sym's rules against the per-argument kinds observed
// at dispatch and builds the decision tree. kinds must be machine kinds:
// Integer64, Real64, or rank-1 tensors of those. The error names the first
// obstruction (diagnostic only — rejection is normal and silent).
func Analyze(sym *expr.Symbol, rules []pattern.Rule, kinds []types.Type) (*Def, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("%s has no DownValues", sym.Name)
	}
	d := &Def{Sym: sym, Kinds: kinds}
	d.params = make([]*expr.Symbol, len(kinds))
	for i := range kinds {
		d.params[i] = expr.Sym(fmt.Sprintf("PatternDispatch`a%d", i+1))
	}
	for ri, r := range rules {
		lr, live, err := d.lowerRule(r)
		if err != nil {
			return nil, fmt.Errorf("%s: rule %d: %w", sym.Name, ri+1, err)
		}
		if live {
			d.rules = append(d.rules, lr)
		}
	}
	if len(d.rules) == 0 {
		return nil, fmt.Errorf("%s: no rule can match the dispatched argument kinds", sym.Name)
	}
	states := make([]ruleState, len(d.rules))
	for i := range d.rules {
		states[i] = ruleState{idx: i}
	}
	budget := treeBudget
	body, err := d.buildTree(states, newFacts(), &budget)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sym.Name, err)
	}
	d.body = body
	return d, nil
}

// Synthesize renders the definition as the Function expression the compile
// pipeline consumes.
func (d *Def) Synthesize() expr.Expr {
	typed := make([]expr.Expr, len(d.params))
	for i, p := range d.params {
		typed[i] = expr.New(expr.SymTyped, p, types.Spec(d.Kinds[i]))
	}
	return expr.New(expr.SymFunction, expr.List(typed...), d.body)
}

// ScanExprs returns the expressions whose free symbols the synthesized
// body can reach at runtime: live right-hand sides and compiled guards,
// with the rule's own pattern variables already replaced by argument
// projections — a variable d_ is not a call to a function named d. The
// tiering engine walks these for call-graph (mutual recursion) edges.
func (d *Def) ScanExprs() []expr.Expr { return d.scan }

// tensorElem unpacks a rank-1 tensor kind.
func tensorElem(t types.Type) (types.Type, bool) {
	c, ok := t.(*types.Compound)
	if !ok || c.Ctor != "Tensor" || len(c.Args) != 2 {
		return nil, false
	}
	return c.Args[0], true
}

// reqHolds reports whether head restriction req holds for every runtime
// value of kind t. Machine kinds fix the head, so this is always decidable:
// an Integer64 value has head Integer, a Real64 value head Real, a tensor
// head List; any other restriction can never hold.
func reqHolds(req *expr.Symbol, t types.Type) bool {
	switch {
	case types.Equal(t, types.TInt64):
		return req == expr.SymInteger
	case types.Equal(t, types.TReal64):
		return req == expr.SymReal
	default:
		return req == expr.SymList
	}
}

// litLive reports whether a literal can ever equal a runtime value of kind
// t. Only a machine Integer can SameQ an Integer64 value and only a Real
// can SameQ a Real64 value (the kernel's SameQ on machine reals is exact
// float equality, which is what compiled Equal performs), so cross-kind
// literals make the rule statically dead rather than mis-matching.
func litLive(lit expr.Expr, t types.Type) bool {
	switch x := lit.(type) {
	case *expr.Integer:
		return types.Equal(t, types.TInt64) && x.IsMachine()
	case *expr.Real:
		return types.Equal(t, types.TReal64)
	}
	return false
}

// lowerRule turns one DownValue rule into its ordered test sequence under
// d.Kinds. live=false prunes a statically dead rule; an error rejects the
// whole symbol (shape outside the fragment, or a pruning that would skip a
// guard the interpreter evaluates).
func (d *Def) lowerRule(r pattern.Rule) (rule, bool, error) {
	var out rule
	shape, ok := pattern.ClassifyRule(r.LHS, d.Sym)
	if !ok {
		return out, false, fmt.Errorf("pattern shape outside the compiled fragment")
	}
	guards := 0
	// dead prunes the rule, unless a guard already preceded the dead test:
	// the interpreter would evaluate that guard before failing, so pruning
	// would change evaluation; reject the symbol instead.
	dead := func() (rule, bool, error) {
		if guards > 0 {
			return out, false, fmt.Errorf("a statically dead test follows a /; guard")
		}
		return out, false, nil
	}
	if len(shape.Args) != len(d.Kinds) {
		// Arity mismatch fails structurally before any guard runs.
		return out, false, nil
	}
	binds := pattern.Bindings{}    // var -> projection expression, for substitution
	occ := map[*expr.Symbol]proj{} // var -> first occurrence, for repeat tests
	var scan []expr.Expr

	bindVar := func(v *expr.Symbol, p proj) (deadRule bool, err error) {
		if v == nil {
			return false, nil
		}
		prev, seen := occ[v]
		if !seen {
			occ[v] = p
			binds[v] = d.projExpr(p)
			return false, nil
		}
		pk, qk := d.projKind(p), d.projKind(prev)
		if !types.Equal(pk, qk) {
			// SameQ across machine kinds is always false (1 =!= 1.).
			return true, nil
		}
		if _, isTensor := tensorElem(pk); isTensor {
			return false, fmt.Errorf("repeated pattern variable bound to a list")
		}
		out.tests = append(out.tests, test{kind: tEqVar, p: p, q: prev})
		return false, nil
	}
	addGuards := func(conds []expr.Expr) {
		for _, c := range conds {
			// Substitute only the variables bound so far: the matcher
			// evaluates the condition at this point, with later pattern
			// variables still unbound global symbols. An unbound symbol
			// normally fails compilation, which safely rejects the symbol.
			g := pattern.Substitute(c, binds)
			out.tests = append(out.tests, test{kind: tGuard, guard: g})
			scan = append(scan, g)
			guards++
		}
	}
	lowerScalar := func(sh pattern.ArgShape, p proj, k types.Type) (deadRule bool, err error) {
		switch sh.Class {
		case pattern.ArgVar:
			if sh.Req != nil && !reqHolds(sh.Req, k) {
				return true, nil
			}
			return bindVar(sh.Var, p)
		case pattern.ArgLiteral:
			if !litLive(sh.Lit, k) {
				return true, nil
			}
			out.tests = append(out.tests, test{kind: tLit, p: p, lit: sh.Lit})
			return false, nil
		}
		return false, fmt.Errorf("argument shape outside the compiled fragment")
	}

	for i, sh := range shape.Args {
		k := d.Kinds[i]
		elem, isTensor := tensorElem(k)
		switch sh.Class {
		case pattern.ArgVar:
			if sh.Req != nil && !reqHolds(sh.Req, k) {
				return dead()
			}
			if deadRule, err := bindVar(sh.Var, proj{arg: i}); err != nil {
				return out, false, err
			} else if deadRule {
				return dead()
			}
		case pattern.ArgLiteral:
			if deadRule, err := lowerScalar(sh, proj{arg: i}, k); err != nil {
				return out, false, err
			} else if deadRule {
				return dead()
			}
		case pattern.ArgList:
			if !isTensor {
				return dead() // a machine scalar is never a List
			}
			out.tests = append(out.tests, test{kind: tLen, p: proj{arg: i}, n: len(sh.Elems)})
			for j, es := range sh.Elems {
				if deadRule, err := lowerScalar(es, proj{arg: i, elem: j + 1}, elem); err != nil {
					return out, false, err
				} else if deadRule {
					return dead()
				}
				addGuards(es.Conds)
			}
			if deadRule, err := bindVar(sh.Var, proj{arg: i}); err != nil {
				return out, false, err
			} else if deadRule {
				return dead()
			}
		default:
			return out, false, fmt.Errorf("argument shape outside the compiled fragment")
		}
		addGuards(sh.Conds)
	}
	addGuards(shape.Conds)
	out.rhs = pattern.Substitute(r.RHS, binds)
	d.scan = append(d.scan, append(scan, out.rhs)...)
	return out, true, nil
}

// projKind is the machine kind of a projection.
func (d *Def) projKind(p proj) types.Type {
	k := d.Kinds[p.arg]
	if p.elem == 0 {
		return k
	}
	elem, _ := tensorElem(k)
	return elem
}

// projExpr renders a projection: the parameter itself, or a (checked) Part
// of it. Part never faults here — every projection is guarded by the
// rule's Length test.
func (d *Def) projExpr(p proj) expr.Expr {
	if p.elem == 0 {
		return d.params[p.arg]
	}
	return expr.NewS("Part", d.params[p.arg], expr.FromInt64(int64(p.elem)))
}

// ruleState tracks one rule's progress down a tree path: idx into d.rules,
// next the first test not yet established on this path.
type ruleState struct {
	idx, next int
}

// facts accumulates what a tree path has already established, so later
// rules skip tests the path decides and drop tests the path contradicts.
type facts struct {
	length map[int]int          // arg -> established Length
	notLen map[int]map[int]bool // arg -> refuted lengths
	eq     map[proj]expr.Expr   // projection -> established literal
	neq    map[proj][]expr.Expr // projection -> refuted literals
}

func newFacts() *facts {
	return &facts{length: map[int]int{}, notLen: map[int]map[int]bool{},
		eq: map[proj]expr.Expr{}, neq: map[proj][]expr.Expr{}}
}

func (f *facts) clone() *facts {
	c := newFacts()
	for k, v := range f.length {
		c.length[k] = v
	}
	for k, v := range f.notLen {
		m := map[int]bool{}
		for n := range v {
			m[n] = true
		}
		c.notLen[k] = m
	}
	for k, v := range f.eq {
		c.eq[k] = v
	}
	for k, v := range f.neq {
		c.neq[k] = append([]expr.Expr{}, v...)
	}
	return c
}

type implication int

const (
	impUnknown implication = iota
	impTrue
	impFalse
)

// implied decides a test from the path's facts. Guards and repeated-variable
// checks are never decided — they always run.
func (f *facts) implied(t test) implication {
	switch t.kind {
	case tLen:
		if n, ok := f.length[t.p.arg]; ok {
			if n == t.n {
				return impTrue
			}
			return impFalse
		}
		if f.notLen[t.p.arg][t.n] {
			return impFalse
		}
	case tLit:
		if lit, ok := f.eq[t.p]; ok {
			if expr.SameQ(lit, t.lit) {
				return impTrue
			}
			return impFalse
		}
		for _, lit := range f.neq[t.p] {
			if expr.SameQ(lit, t.lit) {
				return impFalse
			}
		}
	}
	return impUnknown
}

func (f *facts) noteTrue(t test) {
	switch t.kind {
	case tLen:
		f.length[t.p.arg] = t.n
	case tLit:
		f.eq[t.p] = t.lit
	}
}

func (f *facts) noteFalse(t test) {
	switch t.kind {
	case tLen:
		if f.notLen[t.p.arg] == nil {
			f.notLen[t.p.arg] = map[int]bool{}
		}
		f.notLen[t.p.arg][t.n] = true
	case tLit:
		f.neq[t.p] = append(f.neq[t.p], t.lit)
	}
}

// buildTree recursively lowers the remaining candidate rules on one path.
// The first rule's next undecided test becomes an If node: on the true arm
// the rule advances, on the false arm it is dropped; a rule with no
// undecided tests left has matched and its RHS is the leaf. No candidates
// left means no rule matches — the miss leaf hands the call back to the
// interpreter.
func (d *Def) buildTree(list []ruleState, f *facts, budget *int) (expr.Expr, error) {
	if *budget <= 0 {
		return nil, fmt.Errorf("dispatch tree exceeds %d nodes", treeBudget)
	}
	*budget--
	if len(list) == 0 {
		return missExpr(), nil
	}
	r := d.rules[list[0].idx]
	next := list[0].next
	for next < len(r.tests) {
		switch f.implied(r.tests[next]) {
		case impTrue:
			next++
			continue
		case impFalse:
			return d.buildTree(list[1:], f, budget)
		}
		break
	}
	if next >= len(r.tests) {
		return r.rhs, nil
	}
	t := r.tests[next]
	tf, ff := f.clone(), f.clone()
	tf.noteTrue(t)
	ff.noteFalse(t)
	trueList := make([]ruleState, len(list))
	copy(trueList, list)
	trueList[0].next = next + 1
	tb, err := d.buildTree(trueList, tf, budget)
	if err != nil {
		return nil, err
	}
	fb, err := d.buildTree(list[1:], ff, budget)
	if err != nil {
		return nil, err
	}
	return expr.NewS("If", d.testExpr(t), tb, fb), nil
}

// testExpr renders one test as a compilable Boolean expression.
func (d *Def) testExpr(t test) expr.Expr {
	switch t.kind {
	case tLen:
		return expr.NewS("Equal", expr.NewS("Length", d.params[t.p.arg]), expr.FromInt64(int64(t.n)))
	case tLit:
		return expr.NewS("Equal", d.projExpr(t.p), t.lit)
	case tEqVar:
		return expr.NewS("Equal", d.projExpr(t.p), d.projExpr(t.q))
	default:
		return t.guard
	}
}

// missExpr is the no-rule-matched leaf. The operand is a dummy (see the
// Compile`PatternMiss declaration in types/stdlib.go).
func missExpr() expr.Expr {
	return expr.NewS("Compile`PatternMiss", expr.FromInt64(0))
}
