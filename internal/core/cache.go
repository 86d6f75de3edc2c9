// Process-wide content-addressed FunctionCompile cache (paper §4.5: the
// implicit compilation mode amortises compile cost across repeated calls).
// Entries are keyed by a digest of the macro-expanded (desugared) function's
// binary encoding together with everything else that influences code
// generation: pass options, backend options, the type- and
// macro-environment declaration signatures, the conditioned-macro compile
// options, the compile's SelfName recursion binding, and the hosting
// kernel identity. Eviction is LRU with a bounded entry count so
// long-lived processes do not accumulate compiled programs.
//
// The cache is two-tier:
//
//   - The in-memory front is one map and one LRU list behind one mutex. A
//     hit holds it for a lookup and a list move (~100 ns); sharding it by
//     key prefix measured at or below 1× of this at every core count tried
//     (EXPERIMENTS.md, ISSUE 14), so there is one lock.
//
//   - First compiles of the same key are coalesced (singleflight): one
//     winner compiles, duplicates block on it and count as Coalesced
//     rather than re-doing the work. The flight table sits under the same
//     mutex, so "not cached, not in flight, claim it" is one step.
//
//   - Below memory sits the optional disk tier (SetArtifactStore): on a
//     miss the winner probes the artifact store under the
//     process-independent half of the content key and, on a load, skips
//     the whole front half of the pipeline. The programs it generates from
//     the store stay resident for the next kernel that loads the same
//     bytes. See artifact.go.
package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"
	"strings"
	"sync"

	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
)

// CompileCacheStats is a snapshot of cache effectiveness counters, taken
// under the cache mutex: it is internally consistent and never shows more
// than Capacity entries, and a reset zeroes counters and entries together,
// so a concurrent snapshot observes either the pre-reset or the post-reset
// state. Counters are cumulative since process start or the last reset.
type CompileCacheStats struct {
	Hits   uint64
	Misses uint64
	// Coalesced counts lookups that arrived while another goroutine was
	// already compiling the same key and simply waited for its result
	// (the singleflight path). They are neither hits (the entry was not
	// yet cached) nor misses (no compile work was done).
	Coalesced uint64
	// Evictions counts entries dropped by capacity pressure (LRU) only.
	Evictions uint64
	// Invalidations counts entries dropped by explicit invalidation
	// (InvalidateCompileCache); they are deliberately not folded into
	// Evictions so capacity tuning reads a clean signal.
	Invalidations uint64
	Entries       int
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup. Coalesced
// waits are excluded: they neither found nor compiled an entry.
func (s CompileCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type cacheEntry struct {
	key cacheKey
	ccf *CompiledCodeFunction
}

// inflightCompile is one singleflight slot: the winner publishes the
// compile result and closes done; waiters block on done.
type inflightCompile struct {
	done chan struct{}
	ccf  *CompiledCodeFunction
	err  error
}

// cacheFront is the in-memory compile cache: entries in LRU order, the
// singleflight table and the counters, all guarded by mu.
type cacheFront struct {
	mu       sync.Mutex
	cap      int
	byKey    map[cacheKey]*list.Element // -> *cacheEntry elements of lru
	lru      *list.List                 // front = most recently used
	inflight map[cacheKey]*inflightCompile
	stats    CompileCacheStats // Entries is filled in at snapshot time
}

// compileCache is the process-wide instance.
var compileCache = &cacheFront{
	cap:      256,
	byKey:    map[cacheKey]*list.Element{},
	lru:      list.New(),
	inflight: map[cacheKey]*inflightCompile{},
}

// evictOverLocked drops least-recently-used entries until the cache fits
// its capacity. Called with c.mu held.
func (c *cacheFront) evictOverLocked() {
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// CompileCacheStatsNow returns the current cache counters. Safe to call
// concurrently with compiles and resets; see the CompileCacheStats contract.
func CompileCacheStatsNow() CompileCacheStats {
	c := compileCache
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

func init() {
	// The compile cache reports through the observability layer as gauges
	// (obs cannot import core; the provider callback inverts the
	// dependency). Polled per /metrics scrape.
	obs.RegisterGaugeProvider(func() []obs.Gauge {
		s := CompileCacheStatsNow()
		return []obs.Gauge{
			{Name: "compile_cache_hits_total", Value: float64(s.Hits)},
			{Name: "compile_cache_misses_total", Value: float64(s.Misses)},
			{Name: "compile_cache_coalesced_total", Value: float64(s.Coalesced)},
			{Name: "compile_cache_evictions_total", Value: float64(s.Evictions)},
			{Name: "compile_cache_invalidations_total", Value: float64(s.Invalidations)},
			{Name: "compile_cache_entries", Value: float64(s.Entries)},
			{Name: "compile_cache_hit_ratio", Value: s.HitRatio()},
			{Name: "compile_cache_resident_hits_total", Value: float64(residentHits.Load())},
			{Name: "compile_cache_resident_entries", Value: float64(residents.size())},
		}
	})
}

// setCompileCacheCapacity bounds the cache entry count (minimum 1) and
// returns the previous capacity, evicting LRU entries if the new capacity
// is already exceeded (the eviction tests).
func setCompileCacheCapacity(n int) int {
	if n < 1 {
		n = 1
	}
	c := compileCache
	c.mu.Lock()
	defer c.mu.Unlock()
	prev := c.cap
	c.cap = n
	c.evictOverLocked()
	return prev
}

// ResetCompileCache drops every entry and every resident program and zeroes
// the counters (tests). Compiles in flight are left to finish and file their
// results. The key memo stays: it holds no compiled code, only which stable key
// a source has.
func ResetCompileCache() {
	c := compileCache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byKey = map[cacheKey]*list.Element{}
	c.lru.Init()
	c.stats = CompileCacheStats{}
	residents.reset()
	residentHits.Store(0)
}

// InvalidateCompileCache drops every cached function matching pred and
// returns how many were dropped. Explicit drops count as Invalidations,
// not Evictions — the eviction counter stays a pure capacity-pressure
// signal. Typical use: invalidating the entries bound to a kernel that is
// being discarded, InvalidateCompileCache(func(ccf *CompiledCodeFunction)
// bool { return ccf.BoundKernel() == k }).
func InvalidateCompileCache(pred func(*CompiledCodeFunction) bool) int {
	c := compileCache
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if ent := el.Value.(*cacheEntry); pred(ent.ccf) {
			c.lru.Remove(el)
			delete(c.byKey, ent.key)
			dropped++
		}
		el = next
	}
	c.stats.Invalidations += uint64(dropped)
	return dropped
}

// BoundKernel returns the kernel the compiled wrapper's fallback and engine
// escapes are bound to (the cache keys on its identity).
func (ccf *CompiledCodeFunction) BoundKernel() *kernel.Kernel {
	if ccf == nil || ccf.compiler == nil {
		return nil
	}
	return ccf.compiler.Kernel
}

// cacheKey is the in-memory key. stable is the process-independent content
// key the disk tier is keyed by — identical compiles in different processes
// (or the same process across restarts) share one stable key, and the loaded
// module is rebound to the hosting kernel exactly as LibraryFunctionLoad
// does. The other two fields bind an in-memory entry to its host: the
// compiled wrapper's fallback and engine escapes are bound to the kernel, and
// compiled registry calls bake *fnreg.Entry pointers from the registry
// namespace, so the in-memory tier shares nothing across kernels or engines.
// (The stable key stays registry-free: artifacts with registry deps never
// reach the store.)
type cacheKey struct {
	stable   string
	kernel   *kernel.Kernel
	registry *fnreg.Registry
}

// cacheKeyVersion joins the stable key so that incompatible changes to
// the serialised module format or key derivation invalidate old disk
// entries wholesale (belt to the artifact store's format-magic braces).
// v2: the TWIR carries list_fill/matrix_fill and ownership-transfer
// reference counts (no acquire/release inside a Part-assignment chain), so
// a v1 entry would be re-codegen'd from IR this backend no longer
// produces, and a v1 binary must not be offered a v2 one.
// v3: elementwise tensor natives that write over a dying operand are named
// native_intoK and consume that operand's reference; a v2 binary has no
// implementation for them.
// v4: the key is a digest of the source's binary encoding, not of its
// FullForm, and the module format writes each type once (WCLB0002).
const cacheKeyVersion = "wolfc-key/v4"

// canonicalizeHygiene alpha-renames the macro expander's hygienic
// temporaries (`<base>`h<counter>`, freshSym's marker — the backtick
// cannot appear in user symbols) to sequential numbering in depth-first
// encounter order. The fresh-symbol counter is process-global, so without
// this every expansion of a gensym-introducing macro (Increment, say)
// would hash differently — silently defeating the cross-compiler share
// and, worse, the cross-process artifact store. Renaming is a bijection
// (distinct temporaries get distinct canonical slots), so two functions
// canonicalize alike exactly when they are alpha-equivalent in their
// temporaries.
func canonicalizeHygiene(e expr.Expr) expr.Expr {
	var renames map[*expr.Symbol]*expr.Symbol
	next := 0
	expr.Walk(e, func(x expr.Expr) bool {
		if s, ok := x.(*expr.Symbol); ok {
			if base, isTemp := hygieneBase(s.Name); isTemp {
				if _, seen := renames[s]; !seen {
					if renames == nil {
						renames = map[*expr.Symbol]*expr.Symbol{}
					}
					next++
					renames[s] = expr.Sym(fmt.Sprintf("%s`h%d", base, next))
				}
			}
		}
		return true
	})
	if renames == nil {
		return e
	}
	return expr.Replace(e, func(x expr.Expr) expr.Expr {
		if s, ok := x.(*expr.Symbol); ok {
			if r, ok := renames[s]; ok {
				return r
			}
		}
		return x
	})
}

// hygieneBase splits a hygienic temporary name `<base>`h<digits>` into its
// base; non-temporaries report false.
func hygieneBase(name string) (string, bool) {
	i := strings.LastIndex(name, "`h")
	if i < 0 || i+2 >= len(name) {
		return "", false
	}
	for _, r := range name[i+2:] {
		if r < '0' || r > '9' {
			return "", false
		}
	}
	return name[:i], true
}

// keyHasher is a SHA-256 state and the buffer the configuration half of a key
// is laid out in; contentKey takes one from the pool.
type keyHasher struct {
	h   hash.Hash
	buf keyBuf
}

var keyHashers = sync.Pool{New: func() any { return &keyHasher{h: sha256.New(), buf: make(keyBuf, 0, 256)} }}

// contentKey digests e with everything else a compile's result depends on:
// the SelfName recursion binding, pass and backend options, both environment
// signatures and the conditioned-macro compile options. All of it is
// process-independent: the environment signatures are content hashes of the
// declarations, not pointers. e goes in as its binary encoding (injective: it
// round-trips), streamed from a pooled buffer — nothing is printed — and
// every other field is length-prefixed or fixed-width.
// TestEveryPassOptionIsKeyed fails when passes.Options grows a field this
// does not write.
//
// Both keys are this digest. Of the unexpanded source it is the fast key,
// what the memo below is asked under; of the hygiene-canonicalised expansion
// it is the stable key, the content address of the compiled module.
func (c *Compiler) contentKey(version, selfName string, e expr.Expr) (key [sha256.Size]byte, err error) {
	kh := keyHashers.Get().(*keyHasher)
	defer keyHashers.Put(kh)
	h, b := kh.h, kh.buf[:0]
	h.Reset()
	b.str(version)
	b.str(selfName)
	b.flag(c.Options.AbortHandling)
	b.str(c.Options.InlinePolicy)
	b.num(c.Options.OptimizationLevel)
	b.flag(c.Options.DisableCopyElision)
	b.flag(c.NaiveConstants)
	b.num(c.Parallelism)
	b.num(c.FuseLevel)
	b.num(c.ProfileLevel)
	b.flag(c.Stencil)
	b = binary.LittleEndian.AppendUint64(b, c.TypeEnv.Sig())
	b = binary.LittleEndian.AppendUint64(b, c.MacroEnv.Sig())
	b.num(len(c.CompileOpts))
	h.Write(b)
	if err := expr.Encode(h, e); err != nil {
		return key, err
	}
	if len(c.CompileOpts) > 0 {
		names := make([]string, 0, len(c.CompileOpts))
		for k := range c.CompileOpts {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			b = b[:0]
			b.str(k)
			h.Write(b)
			if err := expr.Encode(h, c.CompileOpts[k]); err != nil {
				return key, err
			}
		}
	}
	h.Sum(key[:0])
	kh.buf = b
	return key, nil
}

// keyBuf appends the configuration half of a key.
type keyBuf []byte

func (b *keyBuf) str(s string) { *b = append(binary.AppendUvarint(*b, uint64(len(s))), s...) }
func (b *keyBuf) num(v int)    { *b = binary.AppendVarint(*b, int64(v)) }
func (b *keyBuf) flag(v bool) {
	if v {
		*b = append(*b, 1)
	} else {
		*b = append(*b, 0)
	}
}

// stableKey expands fn's macros and digests the result — with hygienic
// temporaries canonically renumbered — so that surface spellings that expand
// alpha-equivalently share one entry; expansion runs to a fixed point, so
// compiling from the original source on a miss produces exactly the cached
// program. The expansion is returned as the compile would have made it (spans
// carried into src, temporaries not renumbered), for the compile that follows
// a miss to start from.
func (c *Compiler) stableKey(version, selfName string, fn expr.Expr, src *diag.Source) (string, expr.Expr, error) {
	expanded, err := c.expand(fn, src)
	if err != nil {
		return "", nil, err
	}
	key, err := c.contentKey(version, selfName, canonicalizeHygiene(expanded))
	return string(key[:]), expanded, err
}

// keyMemo is the process-wide fast key → stable key memo: a repeated compile
// of one source under one configuration (implicit compilation in a solver
// loop, a session binding kernels another session has bound) skips macro
// expansion. One memo serves every compiler because the mapping is a pure
// function of the fast key: that key holds the source, the compile options
// and both environment signatures, and macro expansion reads nothing else (no
// kernel: internal/macro imports none). Only the stable key is shared; what it
// addresses in memory is still one entry per kernel and registry (cacheKey).
var keyMemo = genMemo[[sha256.Size]byte, string]{cap: 1024}

// keysFor returns the cache key of compiling fn under req, and the macro
// expansion when finding the key took one.
func (c *Compiler) keysFor(fn expr.Expr, req CompileRequest) (cacheKey, expr.Expr, error) {
	fast, err := c.contentKey(cacheKeyVersion, req.SelfName, fn)
	if err != nil {
		return cacheKey{}, nil, err
	}
	stable, memoised := keyMemo.get(fast)
	var expanded expr.Expr
	if !memoised {
		if stable, expanded, err = c.stableKey(cacheKeyVersion, req.SelfName, fn, req.Source); err != nil {
			return cacheKey{}, nil, err
		}
		keyMemo.put(fast, stable)
	}
	return cacheKey{stable: stable, kernel: c.Kernel, registry: c.reg()}, expanded, nil
}

// FunctionCompileCached is FunctionCompile backed by the process-wide LRU
// cache: a repeated compile of the same desugared source under the same
// configuration returns the already-compiled function.
func (c *Compiler) FunctionCompileCached(fn expr.Expr) (*CompiledCodeFunction, error) {
	ccf, _, err := c.FunctionCompileCachedRequest(fn, CompileRequest{})
	return ccf, err
}

// FunctionCompileCachedRequest is the cache-backed compile with
// per-invocation context. The returned CompileReport describes THIS
// invocation — on a cache hit it is a bare report with CacheHit set, on
// an artifact-store load a bare report with ArtifactHit set (the cached
// function's own compile-time report stays on ccf.Report); it is nil when
// req.Collect is false.
//
// Concurrent first compiles of the same key are coalesced: one goroutine
// wins and compiles (probing the disk tier first when an artifact store
// is attached), the rest block on its result and count as Coalesced.
func (c *Compiler) FunctionCompileCachedRequest(fn expr.Expr, req CompileRequest) (*CompiledCodeFunction, *CompileReport, error) {
	// Resolve the request span once at the boundary so cache-hit events
	// (hitReport) and the nested full compile agree on attribution. Span is
	// not part of any cache key.
	if obs.TraceEnabled() && !req.Span.Valid() {
		req.Span = c.activeSpan()
	}
	var rep *CompileReport
	if req.Collect {
		rep = &CompileReport{}
	}
	t := startTimer(rep)
	key, expanded, err := c.keysFor(fn, req)
	if err != nil {
		// Expansion failures surface through the regular pipeline so
		// the error message carries its usual context.
		ccf, err := c.FunctionCompileRequest(fn, req)
		return ccf, ccf.reportOrNil(), err
	}
	rep.stage("key", t)

	ccf, flight, winner := compileCache.acquire(key)
	switch {
	case ccf != nil:
		return ccf, c.hitReport(ccf, req, rep, false), nil
	case !winner:
		<-flight.done
		if flight.err != nil {
			return nil, nil, flight.err
		}
		return flight.ccf, c.hitReport(flight.ccf, req, rep, false), nil
	}
	// The singleflight winner: probe the disk tier, fall back to a full
	// compile (from the expansion the key took, when it took one), file the
	// result and release the waiters.
	if ccf = c.loadArtifact(key.stable, fn, req, rep); ccf != nil {
		rep = c.hitReport(ccf, req, rep, true)
	} else {
		req.expanded = expanded
		if ccf, err = c.FunctionCompileRequest(fn, req); err == nil {
			if ccf.Report != nil {
				// The key stage, then the pipeline's.
				ccf.Report.Stages = append(rep.Stages[:1:1], ccf.Report.Stages...)
			}
			rep = ccf.Report
			c.maybeStoreArtifact(key.stable, ccf)
		}
	}
	compileCache.finish(key, flight, ccf, err)
	if err != nil {
		return nil, nil, err
	}
	return ccf, rep, nil
}

// acquire is the cache's one entry point for a lookup: a hit returns
// the cached function (and moves it to the LRU front); otherwise the caller
// joins the flight already compiling key, or claims a new one — winner is
// true, the lookup counts as the miss, and the caller must call finish
// exactly once.
func (c *cacheFront) acquire(key cacheKey) (ccf *CompiledCodeFunction, flight *inflightCompile, winner bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*cacheEntry).ccf, nil, false
	}
	if f, ok := c.inflight[key]; ok {
		c.stats.Coalesced++
		return nil, f, false
	}
	f := &inflightCompile{done: make(chan struct{})}
	c.inflight[key] = f
	c.stats.Misses++
	return nil, f, true
}

// finish files the winner's compile under key (evicting LRU entries
// while over capacity, so a snapshot never observes an over-capacity cache)
// and publishes the result to the flight's waiters.
func (c *cacheFront) finish(key cacheKey, f *inflightCompile, ccf *CompiledCodeFunction, err error) {
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, ccf: ccf})
		c.evictOverLocked()
	}
	c.mu.Unlock()
	f.ccf, f.err = ccf, err
	close(f.done)
}

// hitReport completes the per-invocation report (and emits the trace event)
// for a lookup served without compiling: from the in-memory cache, from a
// coalesced flight, or — artifact=true — from the disk tier. The span was
// resolved into req.Span at the cached-compile boundary, so the hit event
// correlates to the requesting trace even though no compiler ran. rep holds
// the stages the lookup paid for and is nil when none was asked for.
func (c *Compiler) hitReport(ccf *CompiledCodeFunction, req CompileRequest, rep *CompileReport, artifact bool) *CompileReport {
	if obs.TraceEnabled() && !req.Span.Suppressed() {
		ev := obs.TraceEvent{Type: "compile", Name: ccf.Metrics.Name(),
			TNs: obs.TraceNow(), CacheHit: true, Engine: c.engineLabel()}
		req.Span.Annotate(&ev)
		obs.Emit(ev)
	}
	if rep != nil {
		rep.CacheHit, rep.ArtifactHit = !artifact, artifact
	}
	return rep
}

// reportOrNil is nil-safe access to the compile-time report.
func (ccf *CompiledCodeFunction) reportOrNil() *CompileReport {
	if ccf == nil {
		return nil
	}
	return ccf.Report
}

// genMemo is the bounded map behind keyMemo and the resident programs
// (artifact.go). It is generational (young + old maps): when the young
// generation fills, it becomes the old generation and a fresh young map starts
// — a key read from the old generation moves back to young, so steady churn
// evicts only keys nobody asked for since the last flip instead of wiping the
// whole memo. It holds at most 2×cap entries; cap is fixed where each
// instance is declared.
type genMemo[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int // per-generation bound
	young map[K]V
	old   map[K]V
}

func (m *genMemo[K, V]) get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.young[k]; ok {
		return v, true
	}
	v, ok := m.old[k]
	if ok {
		m.putLocked(k, v) // promote: hot keys survive the next flip
	}
	return v, ok
}

func (m *genMemo[K, V]) put(k K, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(k, v)
}

func (m *genMemo[K, V]) putLocked(k K, v V) {
	delete(m.old, k) // one generation per key, so size counts each once
	if m.young == nil {
		m.young = make(map[K]V)
	}
	if _, dup := m.young[k]; !dup && len(m.young) >= m.cap {
		m.old = m.young
		m.young = make(map[K]V, m.cap)
	}
	m.young[k] = v
}

// reset empties both generations.
func (m *genMemo[K, V]) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.young, m.old = nil, nil
}

// size reports the current entry count across both generations.
func (m *genMemo[K, V]) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.young) + len(m.old)
}
