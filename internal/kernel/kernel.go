// Package kernel implements the interpreter for the Wolfram-style language:
// the stand-in for the Wolfram Engine that the compiler integrates with
// (paper §2, §3). It provides infinite evaluation to a fixed point,
// attribute-driven argument holding (HoldAll, Listable, Flat, Orderless),
// OwnValues/DownValues rule dispatch, scoping constructs (Module, Block,
// With), arbitrary-precision arithmetic with automatic overflow promotion,
// and user-visible abort interrupts — the behaviours the compiled code must
// preserve (F1, F2, F3, F9).
package kernel

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"

	"wolfc/internal/expr"
	"wolfc/internal/pattern"
)

// Attr is a bit set of symbol attributes controlling evaluation.
type Attr uint16

const (
	HoldFirst Attr = 1 << iota
	HoldRest
	Listable
	Flat
	Orderless
	Protected
	SequenceHold
	NumericFunction
)

// HoldAll marks every argument held.
const HoldAll = HoldFirst | HoldRest

// Applier applies an expression whose head is itself a Normal expression,
// e.g. CompiledFunction[...][args]. Compiled-code packages register appliers
// so their function objects are callable like any other function (F1).
type Applier func(k *Kernel, head *expr.Normal, args []expr.Expr) (expr.Expr, bool)

// Builtin implements a system function. It receives the kernel and the
// expression with (attribute-appropriate) evaluated arguments. It returns
// the result and whether it applied; when it does not apply the expression
// is left unevaluated, which is how symbolic residues arise (Sin[x] stays
// Sin[x]).
type Builtin func(k *Kernel, n *expr.Normal) (expr.Expr, bool)

// DispatchHook is consulted on the DownValues apply path, before pattern
// matching, for a symbol that has DownValues (ISSUE 5 tiered execution:
// the hook dispatches hot symbols into compiled code). It receives the
// call with evaluated arguments and reports whether it produced a result;
// returning false falls through to ordinary rule dispatch, so a hook that
// cannot handle the call (argument shape outside the compiled signature,
// no compiled entry yet) costs one predictable branch and changes nothing.
type DispatchHook func(k *Kernel, head *expr.Symbol, call *expr.Normal) (expr.Expr, bool)

// DefObserver is notified after a symbol's DownValues change (a definition
// added, replaced, or cleared), on the evaluating goroutine. Registries
// keyed on definitions use it to invalidate compiled entries.
type DefObserver func(s *expr.Symbol)

// Kernel is an interpreter instance: symbol values, rules, attributes, and
// evaluation state. It is not safe for concurrent evaluation; Abort may be
// called from any goroutine.
type Kernel struct {
	attrs    map[*expr.Symbol]Attr
	own      map[*expr.Symbol]expr.Expr
	down     map[*expr.Symbol][]pattern.Rule
	builtins map[*expr.Symbol]Builtin
	appliers map[*expr.Symbol]Applier

	abortFlag atomic.Bool
	depth     int
	steps     int64

	// RecursionLimit bounds evaluation depth; IterationLimit bounds total
	// fixed-point steps for one Run. Either being exceeded raises an error.
	RecursionLimit int
	IterationLimit int64

	// Out receives Print output and messages.
	Out io.Writer

	// rngMu guards rng: compiled code invoked from many goroutines shares
	// the kernel's random stream through the Engine interface.
	rngMu     sync.Mutex
	rng       *rand.Rand
	moduleSeq int64

	// dispatchHook and defObserver wire the function registry into the
	// evaluator (ISSUE 5); both are nil unless tiered execution is enabled
	// and are only read/written on the evaluating goroutine.
	dispatchHook DispatchHook
	defObserver  DefObserver

	// assocMu guards assoc: kernel-lifetime state attached by other
	// packages (numerics caches its compiler here), keyed by an
	// owner-chosen string. Stored on the kernel, the state dies with it —
	// unlike a package-level map keyed by kernel pointer, which outlives
	// every kernel put into it.
	assocMu sync.Mutex
	assoc   map[string]any

	// traceSpan holds the request's trace span context for the duration of
	// one evaluation (ISSUE 9). The kernel never interprets it — it is an
	// opaque value set by the engine boundary and read by the compile/tier
	// layers on the evaluating goroutine, which is why it lives here: the
	// kernel is the one object every layer already shares. Stored
	// atomically so readers on other goroutines (a metrics scrape racing an
	// eval) are defined, though the set/read sites are all eval-ordered.
	traceSpan atomic.Value // of any; never nil once set
}

// SetTraceSpan attaches the active request's span context (any non-nil
// value; pass the zero value of the span type to clear — atomic.Value
// forbids nil).
func (k *Kernel) SetTraceSpan(v any) {
	if v == nil {
		return
	}
	k.traceSpan.Store(v)
}

// TraceSpan returns the span context last set, or nil.
func (k *Kernel) TraceSpan() any { return k.traceSpan.Load() }

// New returns a kernel with all builtins installed.
func New() *Kernel {
	k := &Kernel{
		attrs:          map[*expr.Symbol]Attr{},
		own:            map[*expr.Symbol]expr.Expr{},
		down:           map[*expr.Symbol][]pattern.Rule{},
		builtins:       map[*expr.Symbol]Builtin{},
		appliers:       map[*expr.Symbol]Applier{},
		RecursionLimit: 4096,
		IterationLimit: 50_000_000,
		Out:            os.Stderr,
		rng:            rand.New(rand.NewSource(1)),
	}
	k.installControl()
	k.installMath()
	k.installLists()
	k.installStrings()
	k.installSymbolic()
	return k
}

// Seed reseeds the kernel's random source (RandomReal, RandomInteger).
func (k *Kernel) Seed(seed int64) {
	k.rngMu.Lock()
	k.rng = rand.New(rand.NewSource(seed))
	k.rngMu.Unlock()
}

// Register installs a builtin with the given attributes. Used by the
// standard library installers and by tests that extend the kernel.
func (k *Kernel) Register(name string, a Attr, fn Builtin) {
	s := expr.Sym(name)
	k.attrs[s] = a
	k.builtins[s] = fn
}

// RegisterApplier installs an applier for expressions whose head is a
// Normal with the given symbol head, e.g. name[...] applied to arguments.
func (k *Kernel) RegisterApplier(name string, fn Applier) {
	k.appliers[expr.Sym(name)] = fn
}

// Attributes returns the attribute set of s.
func (k *Kernel) Attributes(s *expr.Symbol) Attr { return k.attrs[s] }

// HasBuiltin reports whether s names a builtin system function.
func (k *Kernel) HasBuiltin(s *expr.Symbol) bool {
	_, ok := k.builtins[s]
	return ok
}

// OwnValue returns the value bound to symbol s, if any.
func (k *Kernel) OwnValue(s *expr.Symbol) (expr.Expr, bool) {
	v, ok := k.own[s]
	return v, ok
}

// SetOwnValue binds s to v (the assignment s = v).
func (k *Kernel) SetOwnValue(s *expr.Symbol, v expr.Expr) { k.own[s] = v }

// ClearOwnValue removes any value bound to s.
func (k *Kernel) ClearOwnValue(s *expr.Symbol) { delete(k.own, s) }

// DownValues returns the rewrite rules attached to s.
func (k *Kernel) DownValues(s *expr.Symbol) []pattern.Rule { return k.down[s] }

// AddDownValue attaches a rewrite rule to s (the definition f[pat] := rhs),
// keeping rules sorted most-specific first. A rule whose LHS matches an
// existing rule's LHS structurally replaces it.
func (k *Kernel) AddDownValue(s *expr.Symbol, r pattern.Rule) {
	defer k.notifyDefChange(s)
	rules := k.down[s]
	for i := range rules {
		if expr.SameQ(rules[i].LHS, r.LHS) {
			rules[i] = r
			return
		}
	}
	rules = append(rules, r)
	pattern.SortRules(rules)
	k.down[s] = rules
}

// ClearDownValues removes every rewrite rule attached to s (Clear).
func (k *Kernel) ClearDownValues(s *expr.Symbol) {
	if _, had := k.down[s]; !had {
		return
	}
	delete(k.down, s)
	k.notifyDefChange(s)
}

// Assoc returns the kernel-associated value stored under key, if any.
func (k *Kernel) Assoc(key string) (any, bool) {
	k.assocMu.Lock()
	defer k.assocMu.Unlock()
	v, ok := k.assoc[key]
	return v, ok
}

// SetAssoc stores v under key on this kernel (nil v deletes the key).
func (k *Kernel) SetAssoc(key string, v any) {
	k.assocMu.Lock()
	defer k.assocMu.Unlock()
	if v == nil {
		delete(k.assoc, key)
		return
	}
	if k.assoc == nil {
		k.assoc = map[string]any{}
	}
	k.assoc[key] = v
}

// AssocOrStore returns the value under key, storing (and returning) the
// result of mk() if the key is empty. mk runs under the assoc lock, so it
// executes at most once per key.
func (k *Kernel) AssocOrStore(key string, mk func() any) any {
	k.assocMu.Lock()
	defer k.assocMu.Unlock()
	if v, ok := k.assoc[key]; ok {
		return v
	}
	v := mk()
	if k.assoc == nil {
		k.assoc = map[string]any{}
	}
	k.assoc[key] = v
	return v
}

// ClearAssoc drops every kernel-associated value (engine shutdown).
func (k *Kernel) ClearAssoc() {
	k.assocMu.Lock()
	k.assoc = nil
	k.assocMu.Unlock()
}

// SetDispatchHook installs (or, with nil, removes) the compiled-dispatch
// hook consulted before DownValues pattern matching. Only one hook can be
// active; call from the evaluating goroutine.
func (k *Kernel) SetDispatchHook(h DispatchHook) { k.dispatchHook = h }

// SetDefObserver installs (or, with nil, removes) the definition-change
// observer. Only one observer can be active; call from the evaluating
// goroutine.
func (k *Kernel) SetDefObserver(f DefObserver) { k.defObserver = f }

func (k *Kernel) notifyDefChange(s *expr.Symbol) {
	if k.defObserver != nil {
		k.defObserver(s)
	}
}

// Abort requests an asynchronous abort of the current evaluation (F3). It is
// safe to call from another goroutine; the evaluator polls the flag.
func (k *Kernel) Abort() { k.abortFlag.Store(true) }

// Aborted reports whether an abort has been requested and not yet consumed.
func (k *Kernel) Aborted() bool { return k.abortFlag.Load() }

// ClearAbort resets the abort flag; Run does this before evaluating.
func (k *Kernel) ClearAbort() { k.abortFlag.Store(false) }

// Sentinel panics used for non-local control flow inside one evaluation.
type (
	abortPanic    struct{}
	breakPanic    struct{}
	continuePanic struct{}
	returnPanic   struct{ value expr.Expr }
	throwPanic    struct {
		tag, value expr.Expr
	}
	evalError struct{ msg string }
)

// EvalError reports a hard evaluation error (limits exceeded, malformed
// special form).
func (e evalError) Error() string { return e.msg }

func (k *Kernel) errorf(format string, args ...any) {
	panic(evalError{msg: fmt.Sprintf(format, args...)})
}

// message prints a kernel message, e.g. warnings on overflow fallback.
func (k *Kernel) message(sym, tag, body string) {
	fmt.Fprintf(k.Out, "%s::%s: %s\n", sym, tag, body)
}

// Run evaluates e at top level: the abort flag is cleared first, and abort,
// Throw, and evaluation errors are converted to results ($Aborted, the
// thrown value as Hold, or an error) instead of panics.
func (k *Kernel) Run(e expr.Expr) (result expr.Expr, err error) {
	k.ClearAbort()
	return k.RunArmed(e)
}

// RunArmed is Run without the initial ClearAbort: the caller owns the abort
// flag's lifecycle. A serving layer that arms a request-deadline timer
// (time.AfterFunc → Abort) before evaluation must use this form — with Run,
// a timer firing between arming and the ClearAbort at Run's entry would be
// silently swallowed and the request would run unbounded.
func (k *Kernel) RunArmed(e expr.Expr) (result expr.Expr, err error) {
	k.depth = 0
	k.steps = 0
	defer func() {
		switch r := recover(); r := r.(type) {
		case nil:
		case abortPanic:
			result = expr.SymAborted
			err = nil
		case throwPanic:
			result = expr.NewS("Hold", r.value)
			err = nil
		case returnPanic:
			result = r.value
			err = nil
		case breakPanic, continuePanic:
			result = expr.SymNull
			err = nil
		case evalError:
			result = expr.SymFailed
			err = r
		default:
			panic(r)
		}
	}()
	return k.Eval(e), nil
}

// Eval evaluates e to a fixed point (the language's "infinite evaluation",
// paper §2.1). It panics with kernel sentinels for abort/throw/limits; use
// Run at API boundaries.
func (k *Kernel) Eval(e expr.Expr) expr.Expr {
	k.depth++
	if k.depth > k.RecursionLimit {
		k.depth--
		k.errorf("$RecursionLimit: recursion depth of %d exceeded", k.RecursionLimit)
	}
	defer func() { k.depth-- }()

	for {
		k.steps++
		if k.steps > k.IterationLimit {
			k.errorf("$IterationLimit: %d evaluation steps exceeded", k.IterationLimit)
		}
		if k.abortFlag.Load() {
			panic(abortPanic{})
		}
		next, changed := k.evalStep(e)
		if !changed {
			return next
		}
		e = next
	}
}

// evalStep performs one outer evaluation step; changed=false means e is a
// fixed point.
func (k *Kernel) evalStep(e expr.Expr) (expr.Expr, bool) {
	switch x := e.(type) {
	case *expr.Symbol:
		if v, ok := k.own[x]; ok {
			return v, !expr.SameQ(v, x)
		}
		return x, false
	case *expr.Normal:
		return k.evalNormal(x)
	default:
		return e, false // numbers and strings are self-evaluating
	}
}

func (k *Kernel) evalNormal(n *expr.Normal) (expr.Expr, bool) {
	origHead := n.Head()
	head := k.Eval(origHead)
	headChanged := !expr.SameQ(head, origHead)

	var attrs Attr
	headSym, headIsSym := head.(*expr.Symbol)
	if headIsSym {
		attrs = k.attrs[headSym]
	}

	// Evaluate arguments subject to hold attributes, splicing Sequence and
	// stripping Evaluate overrides.
	args, argsChanged := k.evalArgs(n.Args(), attrs)

	// Flat: flatten nested applications of the same head.
	if attrs&Flat != 0 {
		if flat, did := flattenHead(headSym, args); did {
			args, argsChanged = flat, true
		}
	}
	// Orderless: canonical argument order. evalArgs and flattenHead return
	// a slice of their own, so it is sorted in place.
	if attrs&Orderless != 0 && sortCanonical(args) {
		argsChanged = true
	}

	cur := n
	if headChanged || argsChanged {
		cur = expr.New(head, args...)
	}

	// Listable: thread over list arguments.
	if attrs&Listable != 0 {
		if threaded, ok := k.threadListable(cur); ok {
			return threaded, true
		}
	}

	// Function application: (Function[...])[args], and registered appliers
	// such as CompiledFunction objects.
	if fnode, ok := head.(*expr.Normal); ok {
		if fh, ok := fnode.Head().(*expr.Symbol); ok {
			if fh == expr.SymFunction {
				return k.applyFunction(fnode, cur.Args()), true
			}
			if ap, found := k.appliers[fh]; found {
				if out, applied := ap(k, fnode, cur.Args()); applied {
					return out, true
				}
			}
		}
	}

	if headIsSym {
		// User DownValues take precedence over builtins, so users can
		// overload system symbols that are not Protected.
		if rules := k.down[headSym]; len(rules) != 0 {
			// Tiered execution (ISSUE 5): a compiled entry for this symbol
			// is tried before pattern matching. The hook is guarded — an
			// argument outside the compiled signature returns false and the
			// rules below apply exactly as without the hook (F2-style).
			if k.dispatchHook != nil {
				if out, ok := k.dispatchHook(k, headSym, cur); ok {
					return out, true
				}
			}
			for _, r := range rules {
				b, ok := pattern.MatchCond(r.LHS, cur, k.condEval)
				if ok {
					return pattern.Substitute(r.RHS, b), true
				}
			}
		}
		if fn, ok := k.builtins[headSym]; ok {
			if out, applied := fn(k, cur); applied {
				return out, !expr.SameQ(out, cur)
			}
		}
	}
	return cur, headChanged || argsChanged
}

// condEval evaluates a pattern Condition test under bindings.
func (k *Kernel) condEval(test expr.Expr, b pattern.Bindings) bool {
	v, _ := expr.TruthValue(k.Eval(pattern.Substitute(test, b)))
	return v
}

var symEvaluate = expr.Sym("Evaluate")
var symSequence = expr.Sym("Sequence")
var symUnevaluated = expr.Sym("Unevaluated")

func (k *Kernel) evalArgs(args []expr.Expr, attrs Attr) ([]expr.Expr, bool) {
	changed := false
	out := make([]expr.Expr, 0, len(args))
	for i, a := range args {
		hold := (i == 0 && attrs&HoldFirst != 0) || (i > 0 && attrs&HoldRest != 0)
		// Evaluate[...] overrides holding.
		if ev, ok := expr.IsNormalN(a, symEvaluate, 1); ok && hold {
			a, hold = ev.Arg(1), false
			changed = true
		}
		v := a
		if !hold {
			v = k.Eval(a)
			if !expr.SameQ(v, a) {
				changed = true
			}
		}
		if seq, ok := expr.IsNormal(v, symSequence); ok && attrs&SequenceHold == 0 {
			out = append(out, seq.Args()...)
			changed = true
			continue
		}
		out = append(out, v)
	}
	return out, changed
}

func flattenHead(head *expr.Symbol, args []expr.Expr) ([]expr.Expr, bool) {
	needs := false
	for _, a := range args {
		if _, ok := expr.IsNormal(a, head); ok {
			needs = true
			break
		}
	}
	if !needs {
		return args, false
	}
	out := make([]expr.Expr, 0, len(args)+4)
	for _, a := range args {
		if n, ok := expr.IsNormal(a, head); ok {
			out = append(out, n.Args()...)
		} else {
			out = append(out, a)
		}
	}
	return out, true
}

// threadListable threads a Listable function over list arguments:
// f[{a,b}, c] -> {f[a,c], f[b,c]}; lists must agree in length.
func (k *Kernel) threadListable(n *expr.Normal) (expr.Expr, bool) {
	length := -1
	anyList := false
	for _, a := range n.Args() {
		if l, ok := expr.IsNormal(a, expr.SymList); ok {
			anyList = true
			if length == -1 {
				length = l.Len()
			} else if l.Len() != length {
				k.errorf("Thread: lists of unequal length in %s", expr.InputForm(n))
			}
		}
	}
	if !anyList {
		return nil, false
	}
	elems := make([]expr.Expr, length)
	for i := 0; i < length; i++ {
		call := make([]expr.Expr, n.Len())
		for j, a := range n.Args() {
			if l, ok := expr.IsNormal(a, expr.SymList); ok {
				call[j] = l.Arg(i + 1)
			} else {
				call[j] = a
			}
		}
		elems[i] = k.Eval(expr.New(n.Head(), call...))
	}
	return expr.List(elems...), true
}

// applyFunction beta-reduces Function[{params}, body][args] or the slot form
// Function[body][args].
func (k *Kernel) applyFunction(fn *expr.Normal, args []expr.Expr) expr.Expr {
	switch fn.Len() {
	case 1:
		// Slot form: replace Slot[i].
		body := expr.Replace(fn.Arg(1), func(e expr.Expr) expr.Expr {
			if s, ok := expr.IsNormalN(e, expr.SymSlot, 1); ok {
				if idx, ok := s.Arg(1).(*expr.Integer); ok && idx.IsMachine() {
					i := int(idx.Int64())
					if i >= 1 && i <= len(args) {
						return args[i-1]
					}
					k.errorf("Function: slot #%d out of range for %d arguments", i, len(args))
				}
			}
			return e
		})
		return k.Eval(body)
	case 2:
		params := fn.Arg(1)
		var names []*expr.Symbol
		switch p := params.(type) {
		case *expr.Symbol:
			names = []*expr.Symbol{p}
		case *expr.Normal:
			if l, ok := expr.IsNormal(p, expr.SymList); ok {
				for _, a := range l.Args() {
					// Typed[x, spec] annotations are compiler metadata; the
					// interpreter binds the bare name (F1 parity).
					if ty, ok := expr.IsNormalN(a, expr.SymTyped, 2); ok {
						a = ty.Arg(1)
					}
					s, ok := a.(*expr.Symbol)
					if !ok {
						k.errorf("Function: invalid parameter %s", expr.InputForm(a))
					}
					names = append(names, s)
				}
			} else {
				k.errorf("Function: invalid parameter list %s", expr.InputForm(params))
			}
		}
		if len(args) < len(names) {
			k.errorf("Function: %d arguments supplied for %d parameters", len(args), len(names))
		}
		b := pattern.Bindings{}
		for i, nm := range names {
			b[nm] = args[i]
		}
		return k.Eval(pattern.Substitute(fn.Arg(2), b))
	}
	k.errorf("Function: malformed %s", expr.InputForm(fn))
	return nil
}

// freshName generates a unique Module variable name, e.g. a$42.
func (k *Kernel) freshName(base string) *expr.Symbol {
	k.moduleSeq++
	return expr.Sym(fmt.Sprintf("%s$%d", base, k.moduleSeq))
}

// EvalGuarded evaluates e like Run but without resetting the abort flag or
// evaluation counters: compiled code uses it for interpreter escapes so a
// pending user abort still interrupts the escape (F3/F9).
func (k *Kernel) EvalGuarded(e expr.Expr) (result expr.Expr, err error) {
	defer func() {
		switch r := recover(); r := r.(type) {
		case nil:
		case abortPanic:
			result = expr.SymAborted
			err = nil
		case throwPanic:
			result = expr.NewS("Hold", r.value)
			err = nil
		case returnPanic:
			result = r.value
			err = nil
		case evalError:
			result = expr.SymFailed
			err = r
		default:
			panic(r)
		}
	}()
	return k.Eval(e), nil
}

// RandReal draws from the kernel's random stream, shared with compiled code
// so interpreted and compiled runs of a seeded program agree.
func (k *Kernel) RandReal() float64 {
	k.rngMu.Lock()
	v := k.rng.Float64()
	k.rngMu.Unlock()
	return v
}

// RandInt draws a uniform integer in [lo, hi] from the kernel's stream.
func (k *Kernel) RandInt(lo, hi int64) int64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	k.rngMu.Lock()
	v := lo + k.rng.Int63n(hi-lo+1)
	k.rngMu.Unlock()
	return v
}
