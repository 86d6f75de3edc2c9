// Package macro implements the compiler's hygienic pattern-based macro
// system (paper §4.2). Macros mimic the engine's pattern substitution with
// one key distinction: substitution is hygienic — variables introduced by a
// macro expansion are renamed so they cannot capture user variables.
//
// Macros serve two purposes: desugaring high-level constructs to primitive
// forms, and "always-safe" AST-level optimisations. They are applied in
// depth-first order until a fixed point is reached.
package macro

import (
	"fmt"
	"sync/atomic"

	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/pattern"
)

// Macro is one rewrite rule with an optional applicability predicate
// (Conditioned in the paper §4.7: rules can be predicated on compile
// options or analyses).
type Macro struct {
	Rule pattern.Rule
	// When returns whether the rule is enabled for the given compile
	// options; nil means always enabled.
	When func(opts map[string]expr.Expr) bool
}

// Env is a macro environment: an ordered map from head symbols to their
// macro rules. Environments chain to a parent, so user environments extend
// the compiler's default environment without mutating it (paper §4.7).
type Env struct {
	parent *Env
	rules  map[*expr.Symbol][]Macro
	// CondEval evaluates Condition tests inside macro patterns; optional.
	CondEval pattern.CondFunc
	// sig is a running content hash over registrations, combined across
	// the chain by Sig to key the process-wide compile cache. Zero until
	// the first registration.
	sig uint64
	// frozen marks the process-wide default root: every compiler reads it
	// concurrently, so a registration into it is a bug and panics.
	frozen bool
}

// NewEnv returns an empty macro environment chained to parent (nil for a
// root environment).
func NewEnv(parent *Env) *Env {
	return &Env{parent: parent, rules: map[*expr.Symbol][]Macro{}}
}

// mustBeOpen panics on the frozen root before a registration writes to it.
func (e *Env) mustBeOpen() {
	if e.frozen {
		panic("macro: registration into the shared default environment; register into the child DefaultEnv() returns")
	}
}

// bumpSig folds registration content into the signature (FNV-1a).
func (e *Env) bumpSig(parts ...string) {
	h := e.sig
	if h == 0 {
		h = 14695981039346656037
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	e.sig = h
}

// Sig returns the chain's registration signature: environments with equal
// signatures have registered the same rules in the same order. Conditioned
// rules additionally mix in a per-registration marker, since their Go
// predicate closures cannot be content-hashed; two conditioned
// registrations therefore never alias in the compile cache. Environments
// with no registrations are skipped, so an empty child has its parent's
// signature.
func (e *Env) Sig() uint64 {
	var h uint64 = 14695981039346656037
	for env := e; env != nil; env = env.parent {
		if env.sig == 0 {
			continue
		}
		h ^= env.sig
		h *= 1099511628211
	}
	return h
}

var condSigCounter int64

// Register adds macro rules for the given head, preserving the paper's rule
// ordering: rules are matched most-specific first within one registration
// batch, and earlier batches take priority within one environment. Across
// the chain the nearest environment wins: a rule registered on the child
// DefaultEnv returns is tried before the bundled rules for the same head.
func (e *Env) Register(head *expr.Symbol, rules ...pattern.Rule) {
	e.mustBeOpen()
	ms := make([]Macro, len(rules))
	prs := append([]pattern.Rule{}, rules...)
	pattern.SortRules(prs)
	for i, r := range prs {
		ms[i] = Macro{Rule: r}
		e.bumpSig("rule", head.Name, expr.FullForm(r.LHS), expr.FullForm(r.RHS))
	}
	e.rules[head] = append(e.rules[head], ms...)
}

// RegisterConditioned adds a macro gated on compile options (paper §4.7's
// Conditioned decorator).
func (e *Env) RegisterConditioned(head *expr.Symbol, when func(opts map[string]expr.Expr) bool, rules ...pattern.Rule) {
	e.mustBeOpen()
	for _, r := range rules {
		e.rules[head] = append(e.rules[head], Macro{Rule: r, When: when})
		e.bumpSig("cond", head.Name, expr.FullForm(r.LHS), expr.FullForm(r.RHS),
			fmt.Sprint(atomic.AddInt64(&condSigCounter, 1)))
	}
}

// rulesFor returns all rules visible for head, nearest environment first.
// The result is read-only: when one environment in the chain holds every
// rule (an empty child over the default root) it is that environment's own
// slice, capped.
func (e *Env) rulesFor(head *expr.Symbol) []Macro {
	var out []Macro
	for env := e; env != nil; env = env.parent {
		if ms := env.rules[head]; len(out) == 0 {
			out = ms[:len(ms):len(ms)]
		} else {
			out = append(out, ms...) // out is at capacity or already a copy
		}
	}
	return out
}

var hygieneCounter int64

// freshSym returns a hygienic rename of base that cannot collide with user
// symbols (user code cannot contain the marker).
func freshSym(base *expr.Symbol) *expr.Symbol {
	n := atomic.AddInt64(&hygieneCounter, 1)
	return expr.Sym(fmt.Sprintf("%s`h%d", base.Name, n))
}

// Expand rewrites e with the environment's macros, depth-first, to a fixed
// point (paper §4.2: "Macros are evaluated in depth-first order and
// terminate when a fixed point is reached"). opts are the compile options
// consulted by conditioned macros.
func (e *Env) Expand(root expr.Expr, opts map[string]expr.Expr) (expr.Expr, error) {
	return e.ExpandSource(root, opts, nil)
}

// ExpandSource is Expand with source-span propagation: every node rebuilt
// during expansion (children changed, or a macro fired) inherits the span of
// the node it replaced, so positions recorded by the parser survive into the
// expanded tree. A nil src disables propagation at zero cost.
func (e *Env) ExpandSource(root expr.Expr, opts map[string]expr.Expr, src *diag.Source) (expr.Expr, error) {
	// The bound is on rewrites, not on the nodes visited, so a large literal
	// expands however many elements it has.
	const maxFirings = 10_000
	firings := 0
	var rewrite func(x expr.Expr) (expr.Expr, error)
	rewrite = func(x expr.Expr) (expr.Expr, error) {
		for {
			// Depth-first: expand children first.
			if n, ok := x.(*expr.Normal); ok {
				rebuilt, err := rebuild(n, rewrite)
				if err != nil {
					return nil, err
				}
				if rebuilt != nil {
					src.CopySpan(rebuilt, x)
					x = rebuilt
				}
			}
			out, fired, err := e.expandOnce(x, opts)
			if err != nil {
				return nil, err
			}
			if !fired {
				return x, nil
			}
			if firings++; firings > maxFirings {
				return nil, diag.Newf(diag.MacroStage, "M001",
					"macro expansion did not reach a fixed point (last at %s)",
					expr.InputForm(x)).WithSubject(x)
			}
			src.CopySpan(out, x)
			x = out
		}
	}
	return rewrite(root)
}

// rebuild applies f to n's head and arguments and returns n rebuilt from the
// results, or nil when none changed. The argument slice is made at the first
// argument that changed.
func rebuild(n *expr.Normal, f func(expr.Expr) (expr.Expr, error)) (*expr.Normal, error) {
	head, err := f(n.Head())
	if err != nil {
		return nil, err
	}
	var args []expr.Expr
	for i, old := range n.Args() {
		a, err := f(old)
		if err != nil {
			return nil, err
		}
		if args == nil && !expr.SameQ(a, old) {
			args = make([]expr.Expr, n.Len())
			copy(args, n.Args()[:i])
		}
		if args != nil {
			args[i] = a
		}
	}
	if args == nil {
		if expr.SameQ(head, n.Head()) {
			return nil, nil
		}
		args = n.Args()
	}
	return expr.New(head, args...), nil
}

// expandOnce applies the first matching macro at the root of x.
func (e *Env) expandOnce(x expr.Expr, opts map[string]expr.Expr) (expr.Expr, bool, error) {
	n, ok := x.(*expr.Normal)
	if !ok {
		return x, false, nil
	}
	head, ok := n.Head().(*expr.Symbol)
	if !ok {
		return x, false, nil
	}
	for _, m := range e.rulesFor(head) {
		if m.When != nil && !m.When(opts) {
			continue
		}
		b, matched := pattern.MatchCond(m.Rule.LHS, x, e.CondEval)
		if !matched {
			continue
		}
		out := hygienicSubstitute(m.Rule.RHS, b)
		if expr.SameQ(out, x) {
			continue // identity rewrite; try the next rule to avoid loops
		}
		return out, true, nil
	}
	return x, false, nil
}

// hygienicSubstitute substitutes bindings into the macro template while
// renaming template-introduced binders (Module/With locals written in the
// template itself) to fresh names, so expansions cannot capture user
// variables (paper §4.2, hygiene).
func hygienicSubstitute(template expr.Expr, b pattern.Bindings) expr.Expr {
	renames := pattern.Bindings{}
	collectTemplateBinders(template, b, renames)
	if len(renames) > 0 {
		template = pattern.Substitute(template, renames)
	}
	return pattern.Substitute(template, b)
}

// collectTemplateBinders finds symbols bound by scoping constructs that are
// written literally in the template (not bound from the matched input) and
// assigns them fresh names.
func collectTemplateBinders(t expr.Expr, b pattern.Bindings, renames pattern.Bindings) {
	n, ok := t.(*expr.Normal)
	if !ok {
		return
	}
	if h, ok := n.Head().(*expr.Symbol); ok && (h == expr.SymModule || h == expr.SymWith || h == expr.SymBlock) && n.Len() == 2 {
		if vars, ok := expr.IsNormal(n.Arg(1), expr.SymList); ok {
			for _, v := range vars.Args() {
				var name *expr.Symbol
				switch x := v.(type) {
				case *expr.Symbol:
					name = x
				case *expr.Normal:
					if s, ok := expr.IsNormalN(x, expr.SymSet, 2); ok {
						name, _ = s.Arg(1).(*expr.Symbol)
					}
				}
				if name == nil {
					continue
				}
				if _, fromInput := b[name]; fromInput {
					continue // bound from user code; not template-introduced
				}
				if _, done := renames[name]; !done {
					renames[name] = freshSym(name)
				}
			}
		}
	}
	collectTemplateBinders(n.Head(), b, renames)
	for _, a := range n.Args() {
		collectTemplateBinders(a, b, renames)
	}
}
