// Package engine bundles one complete evaluation unit — a kernel, its
// compiler, its tiered-execution pipeline, and its function-registry
// namespace — behind a single handle with a clean lifecycle (ISSUE 8).
//
// The paper's kernel/compiler integration assumes one kernel per process;
// the reproduction's registry inherited that as a process-wide singleton,
// which made a second kernel in the same process unsound: both kernels'
// tiering engines would Reserve/Install the same bare symbol names in one
// flat namespace and cross-wire each other's promoted definitions. Engine
// is the per-tenant unit that fixes this: everything definition-scoped
// (DownValues, registry entries, tiering state, the numerics compiler
// memo, the kernel's compiled functions) lives inside the Engine, while
// everything content-addressed (the compile cache's program table, the
// artifact store, interned symbols, obs counters) stays process-shared so
// concurrent sessions warm each other's compiles without observing each
// other's definitions.
//
// Engines are not safe for concurrent evaluation — like the kernel they
// wrap, evaluation is single-threaded — but Eval serialises callers
// internally, so a serving layer may hand one Engine to multiple
// goroutines and get queueing rather than corruption. Abort (and the
// timeout plumbing riding it) is safe from any goroutine, as in the paper
// (F3).
package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
	"wolfc/internal/numerics"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
	"wolfc/internal/vm"
)

// Options configures a new Engine.
type Options struct {
	// ID labels the engine on /metrics (registry and tier-queue gauges,
	// per-function series). Empty = auto-generated "engine-<n>".
	ID string
	// Tiering enables profile-guided background compilation of hot
	// DownValue definitions (ISSUE 5) inside the engine's namespace.
	Tiering bool
	// Tier tunes the tiering policy when Tiering is set.
	Tier core.TierPolicy
	// LegacyVM also installs the legacy bytecode Compile (wolfrepl parity).
	LegacyVM bool
}

var engineSeq atomic.Uint64

// Engine is one isolated evaluation unit.
type Engine struct {
	ID       string
	Kernel   *kernel.Kernel
	Compiler *core.Compiler
	Tiering  *core.Tiering // nil unless Options.Tiering
	Registry *fnreg.Registry

	mu     sync.Mutex // serialises Eval/Close: the kernel is single-threaded
	closed bool
}

// New builds an engine: fresh kernel, registry namespace, compiler, and
// (optionally) tiering, all wired together. The caller owns the lifecycle
// and must Close it to release registry entries, obs slots, and the
// background compile pool.
func New(opts Options) *Engine {
	id := opts.ID
	if id == "" {
		id = fmt.Sprintf("engine-%d", engineSeq.Add(1))
	}
	k := kernel.New()
	k.Out = io.Discard // Eval captures printed output per call
	reg := fnreg.NewRegistry(id)
	if opts.LegacyVM {
		vm.Install(k)
	}
	c := core.InstallWith(k, reg)
	// Implicit numerics compiles (FindRoot's Newton loop) must resolve and
	// cache inside this namespace too, and die with the engine instead of
	// leaking through a process-global map.
	numerics.UseCompiler(k, c)
	e := &Engine{ID: id, Kernel: k, Compiler: c, Registry: reg}
	if opts.Tiering {
		e.Tiering = core.EnableTieringWith(c, opts.Tier)
	}
	return e
}

// Result is one evaluation outcome.
type Result struct {
	Value  expr.Expr // nil when src held no expression
	Output string    // Print/message text emitted during evaluation
	// TimedOut reports that the request deadline fired and the evaluation
	// was aborted ($Aborted results from a user-level Abort[] leave it
	// false).
	TimedOut bool
}

// ErrClosed is returned by Eval after Close.
var ErrClosed = fmt.Errorf("engine: closed")

// Eval parses and evaluates src (one or more expressions; the last value
// wins, like a REPL feed) with an optional wall-clock timeout riding the
// kernel's abort machinery: the deadline fires k.Abort from a timer
// goroutine and the evaluation unwinds to $Aborted at the next abort poll
// (F3). timeout <= 0 means no deadline. Safe to call from any goroutine;
// calls serialise on the engine.
func (e *Engine) Eval(src string, timeout time.Duration) (Result, error) {
	return e.EvalCtx(context.Background(), src, timeout)
}

// EvalCtx is Eval with request context: a span context carried in ctx
// (obs.WithSpan, as minted by the serving layer per request) is attached
// to the kernel for the duration of the evaluation, so compile/invoke
// /fallback trace events — including background tier compiles this
// evaluation triggers — correlate back to the originating request. The
// context is not consulted for cancellation; deadlines ride the abort
// machinery as in Eval.
func (e *Engine) EvalCtx(ctx context.Context, src string, timeout time.Duration) (Result, error) {
	exprs, err := parser.ParseAll(src)
	if err != nil {
		return Result{}, fmt.Errorf("syntax: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return Result{}, ErrClosed
	}
	if sc := obs.SpanFromContext(ctx); sc.Valid() {
		if sc.Engine == "" {
			sc.Engine = e.ID
		}
		e.Kernel.SetTraceSpan(sc)
		// Clear to the zero span under the same engine lock: the next
		// un-traced Eval must not inherit this request's identity.
		defer e.Kernel.SetTraceSpan(obs.SpanContext{})
	}
	var buf bytes.Buffer
	prevOut := e.Kernel.Out
	e.Kernel.Out = &buf
	defer func() { e.Kernel.Out = prevOut }()

	// Clear any stale abort before arming the deadline, then evaluate with
	// RunArmed: plain Run clears the flag at entry, which would lose a
	// deadline that fired between arming and evaluation on a short timeout.
	e.Kernel.ClearAbort()
	timedOut := new(atomic.Bool)
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			e.Kernel.Abort()
		})
		defer timer.Stop()
	}
	res := Result{}
	for _, x := range exprs {
		out, err := e.Kernel.RunArmed(x)
		if err != nil {
			res.Output = buf.String()
			res.TimedOut = timedOut.Load()
			return res, err
		}
		res.Value = out
		if out == expr.SymAborted {
			break // don't run the rest of the feed on a dead deadline
		}
	}
	res.Output = buf.String()
	res.TimedOut = timedOut.Load()
	return res, nil
}

// Abort requests an asynchronous abort of whatever the engine is currently
// evaluating. Safe from any goroutine.
func (e *Engine) Abort() { e.Kernel.Abort() }

// Stats returns the tiering statistics (zero value when tiering is off).
func (e *Engine) Stats() core.TieringStats {
	if e.Tiering == nil {
		return core.TieringStats{}
	}
	return e.Tiering.Stats()
}

// WaitIdle blocks until background promotion work has drained (tests and
// benchmarks; no-op without tiering).
func (e *Engine) WaitIdle() {
	if e.Tiering != nil {
		e.Tiering.WaitIdle()
	}
}

// Close tears the engine down: stops the tiering workers, retires every
// registry entry, releases the engine's obs gauge and per-function metric
// slots, and drops kernel-associated state (the numerics compiler memo and
// the kernel's compile-cache fronts).
// Idempotent; Eval fails with ErrClosed afterwards.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	if e.Tiering != nil {
		e.Tiering.Close()
	}
	e.Registry.Release()
	obs.ReleaseEngineFuncs(e.ID)
	e.Kernel.ClearAssoc()
}
