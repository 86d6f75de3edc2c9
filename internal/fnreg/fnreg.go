// Package fnreg is the function registry at the kernel↔compiler boundary
// (ISSUE 5, de-globalized in ISSUE 8). It maps symbol names to compiled
// entry points with typed signatures, so that (a) the kernel's DownValues
// apply path can dispatch a hot symbol straight into compiled code, and
// (b) type inference and code generation can resolve a cross-unit call to
// another compiled function as a direct unboxed call instead of a boxed
// KernelApply round-trip through the interpreter.
//
// The package sits below both worlds on purpose: it depends only on the
// type language and the observability layer, so internal/kernel,
// internal/infer, internal/codegen and internal/core can all import it
// without a cycle. Compiled values are stored as opaque `any` (in practice
// *codegen.FuncVal) and asserted by the backend.
//
// Scope (ISSUE 8): the registry is an instance type — one *Registry per
// engine (kernel + compiler + tiering bundle), so two kernels in one
// process never cross-wire promoted definitions. Default (default.go) is
// the one shared instance, for callers with no engine of their own; no
// other package-level mutable registry state exists.
//
// Lifecycle: an entry is Reserved (signature and dependencies recorded, not
// yet callable), then Installed (callable), then Retired (permanently dead).
// The tiering engine reserves and installs a job's entries back to back, as
// it publishes: the members of a mutual-recursion group call each other
// inside one compiled module, never through an entry that is only reserved.
// An entry is never re-pointed at a different function: redefining a
// symbol retires its entry and any future compile installs a fresh one.
// Code that baked a pointer to a retired entry throws a soft kernel
// exception on the next call, which the invocation wrapper converts into
// an interpreter fallback (F2) — stale callers degrade to the correct
// semantics instead of running stale code. The one sanctioned re-point is
// Upgrade: the same definition recompiled on a better tier.
package fnreg

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"wolfc/internal/obs"
	"wolfc/internal/types"
)

// Binding is the installed payload of an entry: the backend function value
// plus an owner-defined payload (core stores the *CompiledCodeFunction).
type Binding struct {
	Fn      any
	Payload any
}

// Entry is one registered function. The signature and dependency set are
// fixed at reservation; only the binding transitions (nil → installed →
// nil again on retirement), through a single atomic pointer so compiled
// call sites pay one load on the hot path.
type Entry struct {
	name string
	sig  *types.Fn

	mu      sync.Mutex // guards deps
	deps    []string
	binding atomic.Pointer[Binding]
	retired atomic.Bool
}

// Name returns the symbol name the entry is registered under.
func (e *Entry) Name() string { return e.name }

// Sig returns the entry's ground signature.
func (e *Entry) Sig() *types.Fn { return e.sig }

// Deps returns the names of other registry entries this entry's compiled
// code calls through the registry (the invalidation cascade edges).
func (e *Entry) Deps() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string{}, e.deps...)
}

// AddDeps extends the dependency set (recorded after compilation, when the
// compiled module's registry-resolved calls are known).
func (e *Entry) AddDeps(names []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.deps = append(e.deps, names...)
}

// Binding returns the installed binding, or nil while the entry is only
// reserved or after it was retired. This is the compiled call-site hot
// path: one atomic load.
func (e *Entry) Binding() *Binding {
	if e == nil {
		return nil
	}
	return e.binding.Load()
}

// Installed reports whether the entry is currently callable.
func (e *Entry) Installed() bool { return e.Binding() != nil }

// Retired reports whether the entry was permanently uninstalled.
func (e *Entry) Retired() bool { return e.retired.Load() }

// Registry is one engine's function-registry namespace. Each engine
// (kernel + compiler + tiering) owns exactly one; entries registered in
// one Registry are invisible to every other, so symbol names collide
// freely across engines in one process. Safe for concurrent use.
type Registry struct {
	id   string
	mu   sync.RWMutex
	live map[string]*Entry

	// Lifetime traffic counters for this instance (the process-wide
	// aggregates in default.go ride the obs counters instead).
	reserves atomic.Uint64
	installs atomic.Uint64
	upgrades atomic.Uint64
	retires  atomic.Uint64

	releaseGauges func()
}

// RegistryStats is a snapshot of one registry's traffic and live state.
type RegistryStats struct {
	Live      int
	Installed int
	Reserves  uint64
	Installs  uint64
	Upgrades  uint64
	Retires   uint64
}

// Registry traffic counters, rendered by /metrics (the promotion signal
// plumbing of ISSUE 5 rides on the obs layer from ISSUE 4). These are
// process-wide aggregates across every registry instance.
var (
	ctrReserves = obs.NewCounter("fnreg_reserves")
	ctrInstalls = obs.NewCounter("fnreg_installs")
	ctrUpgrades = obs.NewCounter("fnreg_upgrades")
	ctrRetires  = obs.NewCounter("fnreg_retires")
)

// NewRegistry creates an isolated registry namespace. id labels the
// instance's gauges on /metrics (`wolfc_fnreg_entries{engine="<id>"}`);
// an empty id emits the unlabeled legacy series (the default instance).
// Engine-labeled gauge registration is capacity-bounded in obs (thousands
// of short-lived sessions degrade to unlabeled aggregates, counted, not
// unbounded label cardinality); call Release when the owning engine shuts
// down to retire every entry and free the label slot.
func NewRegistry(id string) *Registry {
	r := &Registry{id: id, live: map[string]*Entry{}}
	r.releaseGauges = obs.RegisterEngineGauges(id, func() []obs.Gauge {
		s := r.Stats()
		return []obs.Gauge{
			{Name: "fnreg_entries", Value: float64(s.Live), Engine: id},
			{Name: "fnreg_entries_installed", Value: float64(s.Installed), Engine: id},
		}
	})
	return r
}

// ID returns the engine label the registry was created with.
func (r *Registry) ID() string { return r.id }

// Stats snapshots the registry's live state and lifetime traffic.
func (r *Registry) Stats() RegistryStats {
	r.mu.RLock()
	live, installed := len(r.live), 0
	for _, e := range r.live {
		if e.Installed() {
			installed++
		}
	}
	r.mu.RUnlock()
	return RegistryStats{
		Live:      live,
		Installed: installed,
		Reserves:  r.reserves.Load(),
		Installs:  r.installs.Load(),
		Upgrades:  r.upgrades.Load(),
		Retires:   r.retires.Load(),
	}
}

// Reserve registers a new entry for name with a ground signature and the
// names of the entries its code depends on (the edges the retirement cascade
// follows). The entry is live, and so visible to Lookup, at once, but is not
// callable until Install. Reserving over a live entry is an error: the
// caller must Retire the old definition first.
func (r *Registry) Reserve(name string, sig *types.Fn, deps []string) (*Entry, error) {
	if name == "" || sig == nil {
		return nil, fmt.Errorf("fnreg: reserve needs a name and a signature")
	}
	if !types.IsGround(sig) {
		return nil, fmt.Errorf("fnreg: signature for %s is not ground: %s", name, sig)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[name]; ok {
		return nil, fmt.Errorf("fnreg: %s is already registered", name)
	}
	e := &Entry{name: name, sig: sig, deps: append([]string{}, deps...)}
	r.live[name] = e
	r.reserves.Add(1)
	ctrReserves.Inc()
	return e, nil
}

// Install makes a reserved entry callable. Installing a retired entry is a
// no-op (a racing redefinition won: the stale compile is discarded). The
// registry lock serialises Install against Retire so a retired entry can
// never end up callable.
func (r *Registry) Install(e *Entry, fn any, payload any) {
	if e == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.retired.Load() {
		return
	}
	e.binding.Store(&Binding{Fn: fn, Payload: payload})
	r.installs.Add(1)
	ctrInstalls.Inc()
}

// Upgrade atomically re-points an installed entry's binding to a new
// implementation of the *same definition and signature* — the tiering
// engine's stencil→optimised hop (tier F1.5 → F1). Unlike redefinition it
// must NOT retire: the entry identity, signature, and semantics are
// unchanged, so dependents' baked call sites stay valid and simply pick up
// the faster code on their next atomic Binding load. Returns false (and
// leaves the entry untouched) if the entry is not currently installed or
// was retired — the caller's compile raced a redefinition and must discard
// its result.
func (r *Registry) Upgrade(e *Entry, fn any, payload any) bool {
	if e == nil || fn == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.retired.Load() || e.binding.Load() == nil {
		return false
	}
	e.binding.Store(&Binding{Fn: fn, Payload: payload})
	r.upgrades.Add(1)
	ctrUpgrades.Inc()
	return true
}

// Lookup returns the live (reserved or installed) entry for name.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	e, ok := r.live[name]
	r.mu.RUnlock()
	return e, ok
}

// Retire permanently uninstalls name and cascades through reverse
// dependencies: every live entry whose compiled code calls a retired entry
// is retired too (its baked call sites would otherwise reach a dead
// binding; retiring it makes its own callers fall back cleanly as well).
// Returns the names retired, in sorted order; empty when name is not live.
func (r *Registry) Retire(name string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[name]; !ok {
		return nil
	}
	return r.cascadeLocked(name)
}

// RetireEntry retires e only if it is still the live entry under its name.
// A caller retiring an entry it holds (an installation that keeps failing)
// must not take down a successor entry registered for a newer definition;
// the orphan is still marked retired so a late Install on it stays a no-op.
func (r *Registry) RetireEntry(e *Entry) []string {
	if e == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live[e.name] != e {
		e.retired.Store(true)
		e.binding.Store(nil)
		return nil
	}
	return r.cascadeLocked(e.name)
}

func (r *Registry) cascadeLocked(name string) []string {
	retired := map[string]bool{}
	r.retireLocked(name, retired)
	// Cascade to a fixed point: an entry depending on anything retired goes
	// down with it, which may expose further dependents.
	for {
		var next string
		for n, e := range r.live {
			for _, d := range e.Deps() {
				if retired[d] {
					next = n
					break
				}
			}
			if next != "" {
				break
			}
		}
		if next == "" {
			break
		}
		r.retireLocked(next, retired)
	}
	names := make([]string, 0, len(retired))
	for n := range retired {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (r *Registry) retireLocked(name string, retired map[string]bool) {
	e := r.live[name]
	if e == nil {
		return
	}
	e.retired.Store(true)
	e.binding.Store(nil)
	delete(r.live, name)
	retired[name] = true
	r.retires.Add(1)
	ctrRetires.Inc()
}

// Names returns the live entry names, sorted (diagnostics and tests).
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.live))
	for n := range r.live {
		out = append(out, n)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Reset retires every live entry. Tests use it between cases; Release
// calls it on engine shutdown. Counters are not reset.
func (r *Registry) Reset() {
	r.mu.Lock()
	n := len(r.live)
	for name, e := range r.live {
		e.retired.Store(true)
		e.binding.Store(nil)
		delete(r.live, name)
	}
	r.mu.Unlock()
	r.retires.Add(uint64(n))
	ctrRetires.Add(uint64(n))
}

// Release retires every live entry and unregisters the instance's gauges,
// freeing its engine-label slot in the obs layer. Called on engine
// shutdown; the registry stays usable afterwards (a late background
// compile hitting it degrades to ordinary retired-entry semantics) but is
// no longer observable.
func (r *Registry) Release() {
	r.Reset()
	if r.releaseGauges != nil {
		r.releaseGauges()
		r.releaseGauges = nil
	}
}
