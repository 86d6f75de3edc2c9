// Package pattern implements Wolfram Language pattern matching: Blank
// (_), head-restricted blanks (_Integer), named patterns (x_), sequence
// blanks (__ and ___), and Condition (/;). It backs both the interpreter's
// rule dispatch (DownValues) and the compiler's macro system (paper §4.2),
// which reuses the engine's pattern-based substitution.
package pattern

import (
	"sort"

	"wolfc/internal/expr"
)

// Bindings maps pattern variables to their matched values. Sequence matches
// are bound as Sequence[e1, e2, ...] and spliced by Substitute.
type Bindings map[*expr.Symbol]expr.Expr

// CondFunc evaluates a Condition test under the given bindings, reporting
// whether it holds. The interpreter supplies its evaluator here.
type CondFunc func(test expr.Expr, b Bindings) bool

var (
	symBlankSequence     = expr.Sym("BlankSequence")
	symBlankNullSequence = expr.Sym("BlankNullSequence")
	symCondition         = expr.Sym("Condition")
	symSequence          = expr.Sym("Sequence")
	symAlternatives      = expr.Sym("Alternatives")
)

// Match matches pat against subject with no condition evaluator, returning
// the variable bindings on success.
func Match(pat, subject expr.Expr) (Bindings, bool) {
	return MatchCond(pat, subject, nil)
}

// MatchCond matches pat against subject, evaluating Condition tests with
// cond (conditions fail when cond is nil). A failed match allocates nothing
// unless a Condition test was reached; the Bindings map is built only on
// success.
func MatchCond(pat, subject expr.Expr, cond CondFunc) (Bindings, bool) {
	m := matcher{cond: cond}
	if !m.match(pat, subject) {
		return nil, false
	}
	return m.bindings(), true
}

// binding is one entry of the matcher's trail: name bound to val or, when
// val is nil, to the sequence seq, a view of the subject's arguments that
// becomes a Sequence expression only when the bindings are handed out.
type binding struct {
	name *expr.Symbol
	val  expr.Expr
	seq  []expr.Expr
}

func (e binding) value() expr.Expr {
	if e.val != nil {
		return e.val
	}
	return expr.New(symSequence, append([]expr.Expr{}, e.seq...)...)
}

// same reports whether two bindings of one name agree, as SameQ of their
// values would.
func (e binding) same(o binding) bool {
	switch {
	case e.val != nil && o.val != nil:
		return expr.SameQ(e.val, o.val)
	case e.val == nil && o.val == nil:
		return sameArgs(e.seq, o.seq)
	case e.val != nil:
		return isSequenceOf(e.val, o.seq)
	default:
		return isSequenceOf(o.val, e.seq)
	}
}

func isSequenceOf(v expr.Expr, seq []expr.Expr) bool {
	n, ok := expr.IsNormal(v, symSequence)
	return ok && sameArgs(n.Args(), seq)
}

func sameArgs(a, b []expr.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !expr.SameQ(a[i], b[i]) {
			return false
		}
	}
	return true
}

// matcher binds pattern variables on a trail, each name at most once. A
// failed match may leave bindings behind; every point that tries an
// alternative (an Alternatives branch, a sequence split) truncates the trail
// to its mark first, so nothing is copied to backtrack. The trail's first
// entries live in the matcher itself, which stays on the caller's stack.
type matcher struct {
	n     int        // the trail's length
	first [8]binding // its first entries
	rest  []binding  // the others
	cond  CondFunc
}

func (m *matcher) entry(i int) *binding {
	if i < len(m.first) {
		return &m.first[i]
	}
	return &m.rest[i-len(m.first)]
}

// bindings builds the map of what the trail holds.
func (m *matcher) bindings() Bindings {
	b := make(Bindings, m.n)
	for i := 0; i < m.n; i++ {
		e := m.entry(i)
		b[e.name] = e.value()
	}
	return b
}

// bind records the binding, or checks it against an earlier one of its name.
func (m *matcher) bind(e binding) bool {
	for i := 0; i < m.n; i++ {
		if prev := m.entry(i); prev.name == e.name {
			return prev.same(e)
		}
	}
	if m.n < len(m.first) {
		m.first[m.n] = e
	} else {
		m.rest = append(m.rest[:m.n-len(m.first)], e)
	}
	m.n++
	return true
}

func (m *matcher) match(pat, subject expr.Expr) bool {
	switch p := pat.(type) {
	case *expr.Normal:
		head, isSym := p.Head().(*expr.Symbol)
		if isSym {
			switch head {
			case expr.SymBlank:
				return matchBlankHead(p, subject)
			case expr.SymPattern:
				if p.Len() != 2 {
					return false
				}
				name, ok := p.Arg(1).(*expr.Symbol)
				if !ok {
					return false
				}
				return m.match(p.Arg(2), subject) && m.bind(binding{name: name, val: subject})
			case symCondition:
				if p.Len() != 2 {
					return false
				}
				if !m.match(p.Arg(1), subject) {
					return false
				}
				return m.cond != nil && m.cond(p.Arg(2), m.bindings())
			case symAlternatives:
				mark := m.n
				for _, alt := range p.Args() {
					if m.match(alt, subject) {
						return true
					}
					m.n = mark
				}
				return false
			case symBlankSequence, symBlankNullSequence:
				// A bare sequence blank outside an argument list matches a
				// single expression (sequences are handled by matchSeq).
				return matchBlankHead(p, subject)
			}
		}
		// Structural match: subject must be a Normal with matching head and
		// a compatible argument sequence.
		s, ok := subject.(*expr.Normal)
		if !ok {
			return false
		}
		return m.match(p.Head(), s.Head()) && m.matchSeq(p.Args(), s.Args())
	default:
		return expr.SameQ(pat, subject)
	}
}

// matchBlankHead checks a Blank/BlankSequence/BlankNullSequence head
// restriction against a single subject.
func matchBlankHead(p *expr.Normal, subject expr.Expr) bool {
	if p.Len() == 0 {
		return true
	}
	return expr.SameQ(subject.Head(), p.Arg(1))
}

// matchSeq matches a list of argument patterns against a list of subject
// arguments, with backtracking over sequence blanks.
func (m *matcher) matchSeq(pats, subj []expr.Expr) bool {
	if len(pats) == 0 {
		return len(subj) == 0
	}
	p := pats[0]
	min, max, seqPat, named := seqInfo(p)
	if seqPat == nil {
		// Single-expression pattern.
		return len(subj) > 0 && m.match(p, subj[0]) && m.matchSeq(pats[1:], subj[1:])
	}
	// Sequence pattern: try successively longer matches (shortest first,
	// following the engine's ordering), no longer than the run of subject
	// arguments the blank's head admits.
	if max < 0 || max > len(subj) {
		max = len(subj)
	}
	for i := 0; i < max; i++ {
		if !matchBlankHead(seqPat, subj[i]) {
			max = i
		}
	}
	mark := m.n
	for n := min; n <= max; n++ {
		if (named == nil || m.bind(binding{name: named, seq: subj[:n]})) && m.matchSeq(pats[1:], subj[n:]) {
			return true
		}
		m.n = mark
	}
	return false
}

// seqInfo classifies p as a sequence pattern, returning its arity bounds,
// the underlying blank, and the bound name (nil if anonymous). For
// non-sequence patterns seqPat is nil.
func seqInfo(p expr.Expr) (min, max int, seqPat *expr.Normal, named *expr.Symbol) {
	inner := p
	if pn, ok := expr.IsNormalN(p, expr.SymPattern, 2); ok {
		if nm, ok := pn.Arg(1).(*expr.Symbol); ok {
			named = nm
			inner = pn.Arg(2)
		}
	}
	if n, ok := inner.(*expr.Normal); ok {
		if h, ok := n.Head().(*expr.Symbol); ok {
			switch h {
			case symBlankSequence:
				return 1, -1, n, named
			case symBlankNullSequence:
				return 0, -1, n, named
			}
		}
	}
	return 0, 0, nil, nil
}

// Substitute replaces bound pattern variables in e, splicing Sequence values
// into surrounding argument lists.
func Substitute(e expr.Expr, b Bindings) expr.Expr {
	switch x := e.(type) {
	case *expr.Symbol:
		if v, ok := b[x]; ok {
			return v
		}
		return e
	case *expr.Normal:
		head := Substitute(x.Head(), b)
		args := make([]expr.Expr, 0, x.Len())
		for _, a := range x.Args() {
			sub := Substitute(a, b)
			if seq, ok := expr.IsNormal(sub, symSequence); ok {
				args = append(args, seq.Args()...)
			} else {
				args = append(args, sub)
			}
		}
		return expr.New(head, args...)
	default:
		return e
	}
}

// Rule is a rewrite rule LHS -> RHS.
type Rule struct {
	LHS, RHS expr.Expr
}

// Apply attempts to rewrite e with the rule; it reports whether it fired.
func (r Rule) Apply(e expr.Expr, cond CondFunc) (expr.Expr, bool) {
	b, ok := MatchCond(r.LHS, e, cond)
	if !ok {
		return e, false
	}
	return Substitute(r.RHS, b), true
}

// Specificity scores how specific a pattern is; higher scores are matched
// first, approximating the engine's canonical rule ordering (paper §4.2
// "matched based on the rules' pattern specificity").
func Specificity(p expr.Expr) int {
	switch x := p.(type) {
	case *expr.Normal:
		if h, ok := x.Head().(*expr.Symbol); ok {
			switch h {
			case expr.SymBlank:
				if x.Len() == 1 {
					return 4 // typed blank
				}
				return 1 // plain blank
			case symBlankSequence:
				return -2
			case symBlankNullSequence:
				return -3
			case expr.SymPattern:
				if x.Len() == 2 {
					return Specificity(x.Arg(2)) // the name adds nothing
				}
			case symCondition:
				if x.Len() == 2 {
					return Specificity(x.Arg(1)) + 1 // a test narrows the match
				}
			case symAlternatives:
				// As specific as its least specific branch.
				best := 0
				for i, alt := range x.Args() {
					s := Specificity(alt)
					if i == 0 || s < best {
						best = s
					}
				}
				return best
			}
		}
		score := 2 // structural node
		score += Specificity(x.Head())
		for _, a := range x.Args() {
			score += Specificity(a)
		}
		return score
	default:
		return 8 // literal atom
	}
}

// SortRules stably sorts rules most-specific first.
func SortRules(rules []Rule) {
	sort.SliceStable(rules, func(i, j int) bool {
		return Specificity(rules[i].LHS) > Specificity(rules[j].LHS)
	})
}
