package core

import (
	gort "runtime"
	"sync"
	"sync/atomic"
	"time"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
	"wolfc/internal/pattern"
	"wolfc/internal/types"
)

// Tiered execution (ISSUE 5, extended by ISSUE 6): the interpreter is tier
// F2, the baseline (stencil) configuration of the pipeline is tier F1.5, and
// the full optimising pipeline is tier F1. EnableTiering hooks the kernel's
// DownValues dispatch; the hook counts invocations per symbol and sketches
// the observed argument kinds. A symbol that gets even mildly hot is compiled
// almost immediately in the baseline configuration — the same solver, but no
// function resolution, no pass manager and no fusion — and installed. If it
// stays hot (Threshold compiled calls), the same definition is recompiled
// through the full pipeline and the registry entry is re-pointed in place
// (Registry.Upgrade), so dependents' baked call sites pick up the optimised
// code on their next atomic load.
// Definitions the baseline cannot hold (non-scalar types) skip straight to
// the optimised pipeline. Mutually recursive definitions promote together,
// as one module whose members call each other directly, and they take the
// upgrade hop together.
//
// The registry entry is the record of what is installed: a symbol is on a
// compiled tier iff its entry has a binding, the code it runs is the
// binding's payload, and which rung that is is read off the function. The
// engine keeps only heat and job bookkeeping beside it, and makes entries
// only when it publishes: a job's entries are reserved and installed
// together under the tier lock, so none outlives a job that publishes
// nothing. Redefinition (Set/SetDelayed/Clear) retires the entry; the
// registry cascades through dependents, whose next dispatch finds no
// binding, runs interpreted and re-earns promotion; dependent compile-cache
// front entries are dropped; and any in-flight compile for the old
// definition is discarded at publish time.
//
// Compilation runs on a bounded pool of background workers (at most
// GOMAXPROCS); each worker owns one Compiler, so concurrent compiles never
// share mutable front-end state. At most one job per symbol and definition is
// queued or running (symState.pending). The compiled path is guarded
// (F2-style): an argument outside the compiled signature, or a soft runtime
// failure, silently falls through to the interpreter rules, so tiering never
// changes results — only how fast they arrive.

// TierPolicy tunes the promotion engine.
type TierPolicy struct {
	// Threshold is the invocation count at which a symbol graduates to the
	// fully optimised tier: interpreted dispatches when the stencil tier is
	// disabled, stencil-compiled calls otherwise. 0 means the default (50).
	// The baseline tier is entered after Threshold/5 interpreted dispatches
	// (at least 2): hot symbols leave the interpreter almost immediately.
	Threshold uint64
	// DisableStencil skips the baseline tier: hot symbols go straight from
	// the interpreter to the optimised pipeline at Threshold (the pre-ISSUE
	// 6 behaviour).
	DisableStencil bool
	// DisableO2 pins promoted symbols to the stencil tier: no upgrade hop.
	// Used by the differential harness to exercise stencil code in steady
	// state. Definitions the stencil backend cannot hold still compile
	// through the full pipeline (correctness beats tier purity).
	DisableO2 bool
	// Workers bounds the background compile pool. 0 means GOMAXPROCS;
	// values above GOMAXPROCS are clamped to it.
	Workers int
}

const (
	// maxGroup bounds a mutual-recursion compile group.
	maxGroup = 6
	// failureLimit retires a compiled entry after this many soft runtime
	// failures (each already fell back to the interpreter, so this only
	// stops paying for guards that always fail).
	failureLimit = 8
)

func (p TierPolicy) withDefaults() TierPolicy {
	if p.Threshold == 0 {
		p.Threshold = 50
	}
	if limit := gort.GOMAXPROCS(0); p.Workers <= 0 || p.Workers > limit {
		p.Workers = limit
	}
	return p
}

// TieringStats is a snapshot of the engine's activity.
type TieringStats struct {
	Tracked           int    // symbols observed at dispatch
	Installed         int    // symbols currently on a compiled tier
	StencilInstalled  int    // subset of Installed still on the stencil tier
	Promotions        uint64 // definitions successfully compiled and installed
	StencilPromotions uint64 // promotions whose first compiled tier was the stencil
	Upgrades          uint64 // stencil entries re-pointed at optimised code
	CompileFailures   uint64 // promotion or upgrade attempts that did not produce installable code
	Retires           uint64 // entries uninstalled by redefinition or failure
	CompiledCalls     uint64 // dispatches served by compiled code
	GuardMisses       uint64 // dispatches that missed the compiled signature
	SoftFallbacks     uint64 // compiled runs that soft-failed to the interpreter
	Aborts            uint64 // compiled runs ended by abort
}

// Package-level mirrors of the per-engine stats for /metrics, plus the
// per-tier compile-latency histograms and the queue-depth gauge: the
// compile-latency story is the point of the baseline tier, so it is
// first-class observable.
var (
	ctrTierPromotions        = obs.NewCounter("tier_promotions")
	ctrTierStencilPromotions = obs.NewCounter("tier_stencil_promotions")
	ctrTierUpgrades          = obs.NewCounter("tier_upgrades")
	ctrTierCompileFailures   = obs.NewCounter("tier_compile_failures")
	ctrTierRetires           = obs.NewCounter("tier_retires")
	ctrTierCompiledCalls     = obs.NewCounter("tier_compiled_calls")
	ctrTierGuardMisses       = obs.NewCounter("tier_guard_misses")
	ctrTierSoftFallbacks     = obs.NewCounter("tier_soft_fallbacks")

	histStencilCompile = obs.NewHistogram("tier_compile_stencil")
	histO2Compile      = obs.NewHistogram("tier_compile_o2")

	tierQueueDepth atomic.Int64
)

func init() {
	obs.RegisterGaugeProvider(func() []obs.Gauge {
		return []obs.Gauge{
			{Name: "tier_compile_queue_depth", Value: float64(tierQueueDepth.Load())},
		}
	})
}

// symState is the per-symbol heat and job record. Whether the symbol is
// compiled, and on which tier, is not recorded here: entry.Binding() answers
// that. All fields are guarded by Tiering.mu except calls, which the compiled
// hot path bumps without the lock.
type symState struct {
	sym       *expr.Symbol
	kinds     []types.Type // argument-kind sketch from observed dispatches
	defSeq    uint64       // bumped on every definition change
	entry     *fnreg.Entry // the symbol's latest installation; live while it has a binding
	nextTry   uint64       // calls gate for the next attempt after a back-off
	softFails uint64       // soft-failure tally of the current installation
	pending   bool         // a job for this definition is queued or running
	failed    bool         // do not retry until redefined

	// calls counts dispatches on the current rung: interpreted ones under
	// the current sketch, or compiled ones served by the baseline tier.
	calls atomic.Uint64
}

// installed returns the function serving st, nil while st is interpreted.
func (st *symState) installed() *CompiledCodeFunction {
	if b := st.entry.Binding(); b != nil {
		return b.Payload.(*CompiledCodeFunction)
	}
	return nil
}

// rebind starts st afresh on entry (nil: back on the interpreter): heat,
// back-off, failure tally and flags all belonged to the previous rung.
func (st *symState) rebind(entry *fnreg.Entry) {
	st.entry = entry
	st.nextTry = 0
	st.softFails = 0
	st.pending = false
	st.failed = false
	st.calls.Store(0)
}

// tierMember is one definition snapshot handed to a compile worker.
type tierMember struct {
	sym    *expr.Symbol
	fn     expr.Expr // synthesized Function[{Typed...}, body]
	defSeq uint64
	// entry is the installed baseline entry an upgrade re-points (nil for a
	// promotion). It pins the installation generation: if the symbol was
	// redefined or demoted while the recompile was in flight, the identity
	// check at publish time fails and the result is discarded.
	entry *fnreg.Entry
	// span is the request span active when the job was queued (the
	// evaluating goroutine that crossed the threshold), so the background
	// compile's trace events link to the request that made the symbol hot.
	span obs.SpanContext
}

// verdict says how a job that published nothing leaves its members.
type verdict int

const (
	jobStale     verdict = iota // a member was redefined or demoted mid-compile: no penalty
	jobTransient                // lost a race (queue full, registry slot held): back off and re-earn
	jobFailed                   // the definition does not compile: do not retry until redefined
)

// Tiering is one kernel's tiered-execution engine.
type Tiering struct {
	c    *Compiler       // the engine's compiler: its kernel, declaration lookups, the request span
	reg  *fnreg.Registry // the engine's registry namespace
	pol  TierPolicy
	gate uint64 // interpreted dispatches that earn the first compiled rung

	mu    sync.Mutex
	syms  map[*expr.Symbol]*symState
	stats TieringStats

	// Hot-path counters, outside mu.
	compiledCalls atomic.Uint64
	guardMisses   atomic.Uint64
	softFallbacks atomic.Uint64
	aborts        atomic.Uint64

	// queueDepth mirrors the engine's share of tierQueueDepth for the
	// per-engine gauge; releaseGauges unregisters it on Close.
	queueDepth    atomic.Int64
	releaseGauges func()

	jobs     chan []*tierMember // a promotion group, or one upgrade member
	wg       sync.WaitGroup     // the worker pool
	inflight sync.WaitGroup     // queued-but-not-published jobs
	closed   bool
}

// EnableTiering attaches a tiered-execution engine to k, promoting into the
// process-wide default registry through a compiler of its own (tests and
// wolfbench; an engine passes its compiler to EnableTieringWith).
func EnableTiering(k *kernel.Kernel, pol TierPolicy) *Tiering {
	return EnableTieringWith(NewCompiler(k), pol)
}

// EnableTieringWith attaches a tiered-execution engine to c's kernel and
// starts its background compile pool. Promotions Reserve/Install into c's
// registry namespace, workers compile against it, and redefinition retires
// from it, so concurrent engines tier the same symbol names independently.
// Call Close to detach and stop the workers. The engine installs the kernel's
// dispatch hook and definition observer; only one engine per kernel.
func EnableTieringWith(c *Compiler, pol TierPolicy) *Tiering {
	t := &Tiering{
		c:    c,
		reg:  c.reg(),
		pol:  pol.withDefaults(),
		syms: map[*expr.Symbol]*symState{},
		jobs: make(chan []*tierMember, 64),
	}
	t.gate = t.pol.Threshold
	if !t.pol.DisableStencil {
		t.gate = max(2, t.pol.Threshold/5)
	}
	if id := t.reg.ID(); id != "" {
		t.releaseGauges = obs.RegisterEngineGauges(id, func() []obs.Gauge {
			return []obs.Gauge{
				{Name: "tier_compile_queue_depth", Value: float64(t.queueDepth.Load()), Engine: id},
			}
		})
	}
	t.c.Kernel.SetDispatchHook(t.dispatch)
	t.c.Kernel.SetDefObserver(t.defChanged)
	for i := 0; i < t.pol.Workers; i++ {
		t.wg.Add(1)
		go t.worker()
	}
	return t
}

// Close detaches the engine from the kernel and stops the workers. Must be
// called from the evaluating goroutine (like evaluation itself).
func (t *Tiering) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	t.c.Kernel.SetDispatchHook(nil)
	t.c.Kernel.SetDefObserver(nil)
	close(t.jobs)
	t.wg.Wait()
	if t.releaseGauges != nil {
		t.releaseGauges()
	}
}

// WaitIdle blocks until every queued compile has installed (or failed,
// or been discarded). Tests and benchmarks use it to make promotion
// deterministic.
func (t *Tiering) WaitIdle() { t.inflight.Wait() }

// Stats snapshots the engine counters.
func (t *Tiering) Stats() TieringStats {
	t.mu.Lock()
	s := t.stats
	s.Tracked = len(t.syms)
	for _, st := range t.syms {
		if ccf := st.installed(); ccf != nil {
			s.Installed++
			if ccf.stencil {
				s.StencilInstalled++
			}
		}
	}
	t.mu.Unlock()
	s.CompiledCalls = t.compiledCalls.Load()
	s.GuardMisses = t.guardMisses.Load()
	s.SoftFallbacks = t.softFallbacks.Load()
	s.Aborts = t.aborts.Load()
	return s
}

// Compiled reports whether sym is currently served by compiled code (on
// either compiled tier).
func (t *Tiering) Compiled(sym *expr.Symbol) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.syms[sym]
	return st != nil && st.installed() != nil
}

// OnStencilTier reports whether sym is currently served by the stencil
// baseline tier (as opposed to the optimised tier).
func (t *Tiering) OnStencilTier(sym *expr.Symbol) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.syms[sym]
	return st != nil && st.installed() != nil && st.installed().stencil
}

// state returns sym's record, creating it on first sight (t.mu held).
func (t *Tiering) state(sym *expr.Symbol) *symState {
	st := t.syms[sym]
	if st == nil {
		st = &symState{sym: sym}
		t.syms[sym] = st
	}
	return st
}

// upgradable reports whether st, served by ccf, may take the upgrade hop
// (t.mu held).
func (t *Tiering) upgradable(st *symState, ccf *CompiledCodeFunction) bool {
	return ccf.stencil && !t.pol.DisableO2 && !st.pending && !st.failed
}

// dispatch is the kernel hook: called on the evaluating goroutine for every
// DownValues application, with the arguments already evaluated.
func (t *Tiering) dispatch(k *kernel.Kernel, head *expr.Symbol, call *expr.Normal) (expr.Expr, bool) {
	t.mu.Lock()
	st := t.state(head)
	if ccf := st.installed(); ccf != nil {
		// The upgrade hop triggers off successful calls served by the
		// baseline tier; while a job is pending the trigger is disarmed.
		hop := t.upgradable(st, ccf)
		// The lock is released before running compiled code: the engine can
		// escape back into the evaluator (KernelFunction) and re-enter this
		// hook.
		t.mu.Unlock()
		return t.run(st, ccf, call.Args(), hop)
	}
	if st.entry != nil && !st.pending {
		// The registry retired this installation under us (a callee was
		// redefined or kept failing): start afresh, once any job for the old
		// installation has drained.
		st.rebind(nil)
	}
	// Interpreted tier: sketch the argument kinds and count.
	kinds := sketchKinds(call.Args())
	if kinds == nil {
		// Not machine-numeric arguments; never promotable for this call
		// shape, and not evidence against the current sketch either.
		t.mu.Unlock()
		return nil, false
	}
	n := uint64(1)
	if st.kinds == nil || !kindsEqual(st.kinds, kinds) {
		st.kinds = kinds
		st.calls.Store(1)
	} else {
		n = st.calls.Add(1)
	}
	if n >= t.gate {
		t.enqueue(st)
	}
	t.mu.Unlock()
	return nil, false
}

// sketchMaxElems bounds the per-dispatch element scan for list arguments:
// sketching runs on every interpreted dispatch, so a huge list must not
// turn dispatch into an O(n) walk. Longer lists simply never sketch (the
// symbol stays interpreted for that call shape).
const sketchMaxElems = 256

// sketchKinds maps evaluated call arguments to compiled-parameter kinds;
// nil when any argument is outside the machine-numeric fragment. Scalars
// sketch as Integer64/Real64; a homogeneous list of machine scalars
// sketches as a rank-1 tensor, which is what lets list-destructuring
// patterns ({x_, y_}) promote.
func sketchKinds(args []expr.Expr) []types.Type {
	kinds := make([]types.Type, len(args))
	for i, a := range args {
		switch x := a.(type) {
		case *expr.Integer:
			if !x.IsMachine() {
				return nil
			}
			kinds[i] = types.TInt64
		case *expr.Real:
			kinds[i] = types.TReal64
		case *expr.Normal:
			if x.Head() != expr.SymList || x.Len() > sketchMaxElems {
				return nil
			}
			elem := sketchElemKind(x)
			if elem == nil {
				return nil
			}
			kinds[i] = types.TensorOf(elem, 1)
		default:
			return nil
		}
	}
	return kinds
}

// sketchElemKind is the homogeneous machine kind of a list's elements
// (an empty list sketches as integer). Mixed or nested lists return nil.
func sketchElemKind(l *expr.Normal) types.Type {
	kind := types.TInt64
	for i, a := range l.Args() {
		switch x := a.(type) {
		case *expr.Integer:
			if !x.IsMachine() || kind != types.TInt64 {
				return nil
			}
		case *expr.Real:
			if i == 0 {
				kind = types.TReal64
			} else if kind != types.TReal64 {
				return nil
			}
		default:
			return nil
		}
	}
	return kind
}

// strictKind reports whether a is exactly of the machine kind the compiled
// entry was specialised against. Unbox is deliberately lenient (it coerces
// an Integer into a Real64 slot), which is fine for value conversion but
// wrong for dispatch: the decision tree resolved head tests like _Integer
// and _Real statically against the sketch, so an argument of a different
// kind must take the interpreter path instead of being coerced into
// branches the matcher would not choose. Types outside the dispatch
// fragment return true and defer to Unbox.
func strictKind(a expr.Expr, t types.Type) bool {
	switch t {
	case types.TInt64:
		x, ok := a.(*expr.Integer)
		return ok && x.IsMachine()
	case types.TReal64:
		_, ok := a.(*expr.Real)
		return ok
	}
	if c, ok := t.(*types.Compound); ok && c.Ctor == "Tensor" && len(c.Args) == 2 {
		if r, ok := c.Args[1].(*types.Literal); ok && r.Value == 1 {
			l, ok := a.(*expr.Normal)
			if !ok || l.Head() != expr.SymList {
				return false
			}
			for _, e := range l.Args() {
				if !strictKind(e, c.Args[0]) {
					return false
				}
			}
			return true
		}
	}
	return true
}

// strictArgs reports whether args are exactly the kinds params names, in
// number and one by one.
func strictArgs(args []expr.Expr, params []types.Type) bool {
	if len(args) != len(params) {
		return false
	}
	for i, a := range args {
		if !strictKind(a, params[i]) {
			return false
		}
	}
	return true
}

func kindsEqual(a, b []types.Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// enqueue (t.mu held, evaluating goroutine) queues st's next rung: the
// compile group rooted at it while it is interpreted, the optimised recompile
// of its own entry while the baseline tier serves it. Every way of not
// getting a job started ends in abandon, with its one back-off rule.
func (t *Tiering) enqueue(st *symState) {
	if t.closed || st.pending || st.failed || st.calls.Load() < st.nextTry {
		return
	}
	var members []*tierMember
	if ccf := st.installed(); ccf != nil {
		if !t.upgradable(st, ccf) {
			return
		}
		// Each member recompiles alone from the synthesized source it carries,
		// and a group's members (st among them) take the hop together: one
		// left on the group's module would call its partners' baseline code.
		for _, o := range t.syms {
			if p := o.installed(); p != nil && p.Module == ccf.Module && t.upgradable(o, p) {
				members = append(members, &tierMember{sym: o.sym, fn: p.Source, defSeq: o.defSeq, entry: o.entry})
			}
		}
	} else if group, why := t.buildGroup(st); group != nil {
		members = group
	} else {
		t.abandon([]*tierMember{{sym: st.sym, defSeq: st.defSeq}}, why)
		return
	}
	// Capture the triggering request's span here, on the evaluating
	// goroutine: by the time a worker picks the job up the kernel may be
	// evaluating some other tenant-visible request.
	span := t.c.activeSpan()
	for _, m := range members {
		m.span = span
		t.syms[m.sym].pending = true
	}
	t.inflight.Add(1)
	select {
	case t.jobs <- members:
		tierQueueDepth.Add(1)
		t.queueDepth.Add(1)
	default:
		t.abandon(members, jobTransient) // worker backlog
		t.inflight.Done()
	}
}

// abandon (t.mu held) ends a job without publishing: every member still on
// the definition the job snapshotted is left as v says — a transient
// obstruction backs off by Threshold more dispatches on the rung the member
// is on. An upgrade's member keeps its installed baseline entry: it is
// correct, just not optimised.
func (t *Tiering) abandon(members []*tierMember, v verdict) {
	for _, m := range members {
		st := t.syms[m.sym]
		if st == nil || st.defSeq != m.defSeq {
			continue
		}
		st.pending = false
		switch v {
		case jobTransient:
			st.nextTry = st.calls.Load() + t.pol.Threshold
		case jobFailed:
			st.failed = true
		}
	}
	if v == jobFailed {
		t.stats.CompileFailures++
		ctrTierCompileFailures.Inc()
	}
}

// buildGroup analyzes st's definition and every reachable DownValue
// definition it calls (the mutual-recursion closure), bounded by maxGroup.
// A nil group comes with the reason: transient (a partner has no sketch yet,
// or is mid-compile) or failed (the definition shape is not compilable).
func (t *Tiering) buildGroup(root *symState) (members []*tierMember, why verdict) {
	visited := map[*expr.Symbol]bool{root.sym: true}
	queue := []*symState{root}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		if len(members) >= maxGroup {
			return nil, jobFailed
		}
		if len(t.c.TypeEnv.Lookup(st.sym.Name)) > 0 {
			// The name shadows a compiler declaration; promoting it would
			// change which definition compiled callers bind.
			return nil, jobFailed
		}
		rules := append([]pattern.Rule{}, t.c.Kernel.DownValues(st.sym)...)
		p, err := analyzeDownValues(t.c.Kernel, st.sym, rules, st.kinds)
		if err != nil {
			return nil, jobFailed
		}
		members = append(members, &tierMember{sym: st.sym, fn: synthesizeDownValues(p), defSeq: st.defSeq})
		for _, dep := range p.deps {
			if visited[dep] {
				continue
			}
			visited[dep] = true
			ds := t.syms[dep]
			switch {
			case ds == nil || ds.kinds == nil:
				// Partner never dispatched with machine arguments yet; it
				// may still warm up.
				return nil, jobTransient
			case ds.installed() != nil:
				continue // resolves through its live registry entry
			case ds.pending:
				return nil, jobTransient
			case ds.failed:
				return nil, jobFailed
			}
			queue = append(queue, ds)
		}
	}
	return members, why
}

// worker is one background compile goroutine. Each worker owns one Compiler
// and points it at the baseline or the full configuration per compile, so
// concurrent compiles never share mutable front-end state; all workers serve
// one kernel.
func (t *Tiering) worker() {
	defer t.wg.Done()
	c := NewCompilerWith(t.c.Kernel, t.reg)
	// Workers compile asynchronously: the kernel's live span belongs to
	// whatever request is evaluating NOW, not the one that queued this job,
	// so implicit span resolution is off and jobs carry their span
	// explicitly (tierMember.span).
	c.DisableImplicitSpan = true
	for job := range t.jobs {
		tierQueueDepth.Add(-1)
		t.queueDepth.Add(-1)
		t.compileJob(c, job)
		t.inflight.Done()
	}
}

// climb runs compile on the cheapest admissible rung: the baseline
// configuration first (unless disabled, or this is the upgrade hop), then the
// full pipeline when the definition leaves the baseline's fragment
// (non-scalar types). Compile latency feeds the per-tier histograms.
func (t *Tiering) climb(c *Compiler, upgrade bool, compile func() error) (err error) {
	configs := []bool{true, false} // Compiler.Stencil, in the order tried
	if t.pol.DisableStencil || upgrade {
		configs = configs[1:]
	}
	for _, stencil := range configs {
		c.Stencil = stencil
		t0 := time.Now()
		if err = compile(); err == nil {
			hist := histO2Compile
			if stencil {
				hist = histStencilCompile
			}
			hist.Observe(time.Since(t0))
			return nil
		}
	}
	return err
}

// compileJob compiles a job on the cheapest admissible rung and publishes it.
// A single definition, and each member of an upgrade, compiles alone through
// the compile cache, so a promotion compiled before by this process, or by
// any process sharing its artifact store, skips the pipeline; its calls to
// installed entries go through the registry. A group's promotion compiles as
// one module and is never cached: a member's code holds its partners' code.
func (t *Tiering) compileJob(c *Compiler, members []*tierMember) {
	upgrade := members[0].entry != nil
	names, fns := make([]string, len(members)), make([]expr.Expr, len(members))
	for i, m := range members {
		names[i], fns[i] = m.sym.Name, m.fn
	}
	var ccfs []*CompiledCodeFunction
	err := t.climb(c, upgrade, func() (err error) {
		if len(members) > 1 && !upgrade {
			ccfs, err = c.compileGroup(names, fns, members[0].span)
			return err
		}
		ccfs = ccfs[:0]
		for i, m := range members {
			ccf, _, err := c.FunctionCompileCachedRequest(fns[i], CompileRequest{SelfName: names[i], Span: m.span})
			if err != nil {
				return err
			}
			ccfs = append(ccfs, ccf)
		}
		return nil
	})
	t.publish(members, ccfs, err)
}

// publish makes a compiled job live, all members or none, under the tier
// lock. A job that did not compile fails: for an upgrade that disarms the
// trigger for good. A member redefined while the compile was in flight
// poisons the whole job (its partners' code holds the stale definition), and
// so does code calling an entry retired meanwhile, which leaves the compile
// cache. An upgrade re-points its members' entries in place. A promotion
// reserves every member's entry, with the names its code calls as
// dependencies, then installs them all; if a foreign registrant holds a name,
// what was reserved is retired and the job backs off.
func (t *Tiering) publish(members []*tierMember, ccfs []*CompiledCodeFunction, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.abandon(members, jobFailed)
		return
	}
	for _, m := range members {
		if st := t.syms[m.sym]; st == nil || st.defSeq != m.defSeq || (m.entry != nil && st.entry != m.entry) {
			t.abandon(members, jobStale)
			return
		}
	}
	if gone := retiredCallees(ccfs); gone != nil {
		t.c.retire(gone) // compiled, or cached, before its callee retired
		t.abandon(members, jobStale)
		return
	}
	if members[0].entry != nil {
		for i, m := range members {
			if !types.Equal(ccfs[i].signature(), m.entry.Sig()) {
				// The optimised pipeline typed it differently: dependents'
				// call sites bake the baseline signature, so the baseline
				// stays, and the trigger stays disarmed.
				t.abandon(members, jobFailed)
				return
			}
		}
		for i, m := range members {
			if !t.reg.Upgrade(m.entry, ccfs[i].FunctionValue(), ccfs[i]) {
				// Lost a race with retirement, whose cascade also takes down
				// the partners re-pointed before.
				t.abandon(members, jobStale)
				return
			}
			m.entry.AddDeps(ccfs[i].RegDeps)
			t.syms[m.sym].pending = false
			t.syms[m.sym].calls.Store(0)
			t.stats.Upgrades++
			ctrTierUpgrades.Inc()
		}
		return
	}
	entries := make([]*fnreg.Entry, len(members))
	for i, m := range members {
		e, err := t.reg.Reserve(m.sym.Name, ccfs[i].signature(), ccfs[i].RegDeps)
		if err != nil {
			for _, e := range entries[:i] {
				t.reg.RetireEntry(e)
			}
			t.abandon(members, jobTransient)
			return
		}
		entries[i] = e
	}
	for i, m := range members {
		ccf := ccfs[i]
		t.reg.Install(entries[i], ccf.FunctionValue(), ccf)
		t.syms[m.sym].rebind(entries[i])
		t.stats.Promotions++
		ctrTierPromotions.Inc()
		if ccf.stencil {
			t.stats.StencilPromotions++
			ctrTierStencilPromotions.Inc()
		}
	}
}

// countRetires (t.mu held) books n registry retirements.
func (t *Tiering) countRetires(n int) {
	t.stats.Retires += uint64(n)
	ctrTierRetires.Add(uint64(n))
}

// defChanged is the kernel's definition observer (evaluating goroutine):
// Set/SetDelayed/Clear on a symbol with DownValues lands here. The symbol's
// compiled entry is retired; the registry cascades the retirement through
// dependents, which keep their definitions and sketches and simply find no
// binding at their next dispatch; and the functions in this kernel's
// compile-cache front that baked calls to any retired entry are dropped
// (such code is never in the process-wide program table).
func (t *Tiering) defChanged(s *expr.Symbol) {
	t.mu.Lock()
	st := t.state(s)
	st.defSeq++
	st.kinds = nil
	st.rebind(nil)
	retired := t.reg.Retire(s.Name)
	t.countRetires(len(retired))
	t.mu.Unlock()
	if len(retired) > 0 {
		t.c.retire(retired)
	}
}

// run serves one dispatch from compiled code. ok=false means the caller (the
// kernel) proceeds with pattern matching exactly as if no hook existed — the
// guarantee that tiering is invisible in results: unlike
// CompiledCodeFunction.Apply it never re-evaluates through the interpreter
// itself and never prints; the kernel's own rule path is the fallback,
// keeping output bit-identical to an untiered kernel. hop arms the upgrade
// trigger: once Threshold successful calls land on the baseline tier, the
// optimised recompile is queued.
func (t *Tiering) run(st *symState, ccf *CompiledCodeFunction, args []expr.Expr, hop bool) (expr.Expr, bool) {
	if !strictArgs(args, ccf.ParamTypes) {
		// Outside the kinds the entry was specialised against (an Integer
		// where the sketch saw Reals, a mixed list, a bignum, ...): the
		// interpreter rules handle it (F2 guard miss).
		ccf.Metrics.RecordFallback()
		return t.miss()
	}
	out, oc, _ := ccf.invoke(args)
	switch oc {
	case outServed:
		t.compiledCalls.Add(1)
		ctrTierCompiledCalls.Inc()
		if hop && st.calls.Add(1) >= t.pol.Threshold {
			t.mu.Lock()
			t.enqueue(st)
			t.mu.Unlock()
		}
		return out, true
	case outAborted:
		t.aborts.Add(1)
		return out, true
	case outGuardMiss:
		return t.miss()
	}
	// Soft runtime failure (overflow, retired callee, kernel escape):
	// silently hand the call to the interpreter rules.
	t.softFallbacks.Add(1)
	ctrTierSoftFallbacks.Inc()
	t.noteSoftFailure(st)
	return nil, false
}

// miss books one F2 guard miss: the interpreter rules run and produce
// whatever an untiered kernel would (usually the unevaluated call). Misses are
// a property of the arguments, so they never count toward the soft-failure
// retirement limit.
func (t *Tiering) miss() (expr.Expr, bool) {
	t.guardMisses.Add(1)
	ctrTierGuardMisses.Inc()
	return nil, false
}

// noteSoftFailure retires a compiled entry whose guards pass but whose body
// keeps soft-failing: every such call already paid a compiled attempt plus
// an interpreted evaluation. Dependents go down with it through the
// registry's cascade.
func (t *Tiering) noteSoftFailure(st *symState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if st.installed() == nil {
		return
	}
	st.softFails++
	if st.softFails < failureLimit {
		return
	}
	entry := st.entry
	st.rebind(nil)
	st.failed = true
	t.countRetires(len(t.reg.RetireEntry(entry)))
}
