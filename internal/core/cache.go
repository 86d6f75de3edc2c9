// Content-addressed FunctionCompile cache (paper §4.5: the implicit
// compilation mode amortises compile cost across repeated calls). Entries are
// keyed by a digest of the macro-expanded (desugared) function's binary
// encoding together with everything else that influences code generation:
// pass options, backend options, the type- and macro-environment declaration
// signatures, the conditioned-macro compile options and the compile's
// SelfName recursion binding. That stable key names no kernel, registry or
// process.
//
// A lookup goes down two levels and a store:
//
//   - The kernel's front (one per registry namespace, on kernel.Assoc) holds
//     its CompiledCodeFunctions, which are bound to the kernel (fallback,
//     engine escapes) and may bake the registry's entries: a repeat compile
//     in the same kernel returns the same function. The front dies with the
//     kernel, and one kernel's compiles never evict another's.
//
//   - The process's program table (residents) holds kernel-free
//     *codegen.Programs, filed by compiles and by loads: another kernel wraps
//     the program in a CompiledCodeFunction of its own and compiles nothing.
//     Concurrent first compiles of one key are coalesced here (singleflight):
//     one winner compiles, the rest wait and count as Coalesced.
//
//   - Below both sits the optional artifact store (SetArtifactStore), the
//     cross-process tier. See artifact.go.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"wolfc/internal/codegen"
	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/obs"
)

// CompileCacheStats is a snapshot of the cache's counters, cumulative since
// process start or the last ResetCompileCache; each is read atomically on its
// own.
type CompileCacheStats struct {
	Hits   uint64 // served by the compiling kernel's own front
	Misses uint64 // served by the program table, the store or a compile
	// Coalesced counts lookups that waited on another goroutine's compile of
	// the same key (the singleflight path): neither hits nor misses.
	Coalesced uint64
	// Evictions counts front entries dropped by capacity pressure,
	// Invalidations those dropped because a registry entry they call was
	// retired: apart, so capacity tuning reads a clean signal.
	Evictions     uint64
	Invalidations uint64
	Entries       int // programs in the table
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

// The cache's counters: CompileCacheStats's, and statResident, the lookups
// the program table served.
const (
	statHits = iota
	statMisses
	statCoalesced
	statEvictions
	statInvalidations
	statResident
	numStats
)

var cacheCounts [numStats]atomic.Uint64

// CompileCacheStatsNow returns the current cache counters. Safe to call
// concurrently with compiles and resets.
func CompileCacheStatsNow() CompileCacheStats {
	return CompileCacheStats{
		Hits:          cacheCounts[statHits].Load(),
		Misses:        cacheCounts[statMisses].Load(),
		Coalesced:     cacheCounts[statCoalesced].Load(),
		Evictions:     cacheCounts[statEvictions].Load(),
		Invalidations: cacheCounts[statInvalidations].Load(),
		Entries:       residents.size(),
	}
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
			{Name: "compile_cache_resident_hits_total", Value: float64(cacheCounts[statResident].Load())},
		}
	})
}

// ResetCompileCache empties every front and the program table and zeroes the
// counters (tests, benchmarks): every kernel's next compile is a miss.
// Compiles in flight are left to finish and file their results. The key memo
// stays: it holds no compiled code, only which stable key a source has.
func ResetCompileCache() {
	cacheEpoch.Add(1)
	residents.reset()
	for i := range cacheCounts {
		cacheCounts[i].Store(0)
	}
}

// cacheEpoch advances on every ResetCompileCache: a front entry filed under an
// older epoch is no hit.
var cacheEpoch atomic.Uint64

// generation bounds each generation of a front and of the program table: each
// holds at most 2×generation entries, the 256 functions the process-wide
// front held when it was one LRU list.
const generation = 128

// front is one kernel's compiled functions in one registry namespace, by
// stable key.
type front = genMemo[string, frontEntry]

type frontEntry struct {
	ccf   *CompiledCodeFunction
	epoch uint64 // the cacheEpoch it was filed under
}

// front returns the front c's compiles are filed in: its kernel's, for its
// registry namespace. A kernel keeps its fronts on kernel.Assoc, so
// Engine.Close's ClearAssoc releases every function the kernel compiled; a
// compiler without a kernel gets a new front each time.
func (c *Compiler) front() *front {
	if c.Kernel == nil {
		return &front{cap: generation}
	}
	fronts := c.Kernel.AssocOrStore("core.fronts", func() any { return new(sync.Map) }).(*sync.Map)
	if f, ok := fronts.Load(c.reg()); ok {
		return f.(*front)
	}
	f, _ := fronts.LoadOrStore(c.reg(), &front{cap: generation})
	return f.(*front)
}

// retire drops from c's front the functions that call any of the named
// registry entries: their code bakes entries that are gone, and a recompile
// must re-resolve.
func (c *Compiler) retire(names []string) {
	n := c.front().drop(func(e frontEntry) bool {
		return slices.ContainsFunc(e.ccf.RegDeps, func(d string) bool { return slices.Contains(names, d) })
	})
	cacheCounts[statInvalidations].Add(uint64(n))
}

// flight is one singleflight slot: the winner publishes what it produced and
// closes done; waiters block on done.
type flight struct {
	done  chan struct{}
	front *front // the winner's
	ccf   *CompiledCodeFunction
	prog  *codegen.Program // what the winner filed in the table; nil when its code stays with its kernel
	err   error
}

// programTable is the process-wide level: kernel-free programs by stable key,
// and the flights producing them, under the memo's one mutex.
type programTable struct {
	genMemo[string, *codegen.Program]
	flights map[string]*flight
}

// residents is the program table. A program holds no kernel, compiler or
// registry (code generation takes none; compiled code reaches its engine per
// call, through RT.Engine), so any number of CompiledCodeFunctions in any
// number of kernels can share one. The stable key names the compile's whole
// input, so a table hit needs no word from the store.
var residents = programTable{
	genMemo: genMemo[string, *codegen.Program]{cap: generation},
	flights: map[string]*flight{},
}

// lookup takes a cached compile through the levels in one step: c's front,
// the table, the flights. A winner files its function in its front before it
// finishes its flight, so a kernel never wraps a program for a function its
// front already holds. lookup returns the front's function, or the table's
// program, or a flight, which winner says the caller claimed and must finish.
func (t *programTable) lookup(key string, fr *front) (hit *CompiledCodeFunction, prog *codegen.Program, f *flight, winner bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := fr.get(key); ok && e.epoch == cacheEpoch.Load() {
		cacheCounts[statHits].Add(1)
		return e.ccf, nil, nil, false
	}
	if f, ok := t.flights[key]; ok {
		cacheCounts[statCoalesced].Add(1)
		return nil, nil, f, false
	}
	cacheCounts[statMisses].Add(1)
	if prog, ok := t.getLocked(key); ok {
		return nil, prog, nil, false
	}
	f = &flight{done: make(chan struct{}), front: fr}
	t.flights[key] = f
	return nil, nil, f, true
}

// file puts ccf in the front fr.
func file(fr *front, key string, ccf *CompiledCodeFunction) {
	cacheCounts[statEvictions].Add(uint64(fr.put(key, frontEntry{ccf, cacheEpoch.Load()})))
}

// finish publishes a winner's result to its flight's waiters and files its
// program, when it has one to share.
func (t *programTable) finish(key string, f *flight, ccf *CompiledCodeFunction, prog *codegen.Program, err error) {
	f.ccf, f.prog, f.err = ccf, prog, err
	t.mu.Lock()
	delete(t.flights, key)
	if prog != nil {
		t.putLocked(key, prog)
	}
	t.mu.Unlock()
	close(f.done)
}

// shared is the code of c's function ccf that the table may hand other
// kernels, nil when it must stay with c's kernel: profiled code counts blocks
// in atomics inside the program, so two kernels would count into one profile,
// and registry calls bake c's registry entries.
func (c *Compiler) shared(ccf *CompiledCodeFunction) *codegen.Program {
	if ccf == nil || c.ProfileLevel > 0 || len(ccf.RegDeps) > 0 {
		return nil
	}
	return ccf.Program
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
// v5: the Parallelism option left the key, so every digest changes anyway.
// v6: the TWIR carries no reference counts (the C backend inserts them on
// export), so a v5 entry exported to C would be counted twice.
// v7: a tensor of numeric tensors is one packed array (types.Packed), whose
// row stores copy: a v6 binary given a v7 module would store a row as an
// element of a matrix it allocated flat, and a v7 elementwise operation
// may write over a loop-carried operand the v6 list still holds.
const cacheKeyVersion = "wolfc-key/v7"

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
// kernel: internal/macro imports none).
var keyMemo = genMemo[[sha256.Size]byte, string]{cap: 1024}

// keysFor returns the stable key of compiling fn under req, and the macro
// expansion when finding the key took one.
func (c *Compiler) keysFor(fn expr.Expr, req CompileRequest) (string, expr.Expr, error) {
	fast, err := c.contentKey(cacheKeyVersion, req.SelfName, fn)
	if err != nil {
		return "", nil, err
	}
	stable, memoised := keyMemo.get(fast)
	var expanded expr.Expr
	if !memoised {
		if stable, expanded, err = c.stableKey(cacheKeyVersion, req.SelfName, fn, req.Source); err != nil {
			return "", nil, err
		}
		keyMemo.put(fast, stable)
	}
	return stable, expanded, nil
}

// FunctionCompileCached is FunctionCompile backed by the compile cache: a
// repeated compile of the same desugared source under the same configuration
// returns the already-compiled function.
func (c *Compiler) FunctionCompileCached(fn expr.Expr) (*CompiledCodeFunction, error) {
	ccf, _, err := c.FunctionCompileCachedRequest(fn, CompileRequest{})
	return ccf, err
}

// FunctionCompileCachedRequest is the cache-backed compile with
// per-invocation context. The returned CompileReport describes THIS
// invocation — a bare report with CacheHit set when the kernel's front (or a
// flight of its own) served it, with ArtifactHit set when the program table
// or the store did (the function's own compile-time report stays on
// ccf.Report); it is nil when req.Collect is false.
//
// Concurrent first compiles of the same key, from any kernels, are coalesced:
// one goroutine wins and compiles (probing the store first when one is
// attached), the rest block on its result and count as Coalesced.
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

	t = startTimer(rep)
	fr := c.front()
	ccf, prog, f, winner := residents.lookup(key, fr)
	if f != nil && !winner {
		<-f.done
		switch {
		case f.err != nil:
			return nil, nil, f.err
		case f.front == fr:
			ccf = f.ccf
		default:
			// Another kernel's compile: its program, or nothing when its code
			// stays with its kernel, and then a compile of this kernel's own.
			prog = f.prog
		}
	}
	if ccf != nil {
		return ccf, c.hitReport(ccf, req, rep, false), nil
	}
	if prog != nil {
		if ccf, err = c.wrap(prog, fn, req.SelfName, c.backend()+"-aot", nil); err != nil {
			return nil, nil, err
		}
		cacheCounts[statResident].Add(1)
		rep.stage("resident", t)
		file(fr, key, ccf)
		return ccf, c.hitReport(ccf, req, rep, true), nil
	}
	// Nothing in the process: probe the store, fall back to a full compile
	// (from the expansion the key took, when it took one), file the result
	// and release the waiters.
	if ccf = c.loadArtifact(key, fn, req, rep); ccf != nil {
		rep = c.hitReport(ccf, req, rep, true)
	} else {
		req.expanded = expanded
		if ccf, err = c.FunctionCompileRequest(fn, req); err == nil {
			if ccf.Report != nil {
				// The key stage, then the pipeline's.
				ccf.Report.Stages = append(rep.Stages[:1:1], ccf.Report.Stages...)
			}
			rep = ccf.Report
			c.maybeStoreArtifact(key, ccf)
		}
	}
	if err == nil {
		file(fr, key, ccf)
	}
	if winner {
		residents.finish(key, f, ccf, c.shared(ccf), err)
	}
	if err != nil {
		return nil, nil, err
	}
	return ccf, rep, nil
}

// hitReport completes the per-invocation report (and emits the trace event)
// for a lookup served without compiling: from the kernel's front or a flight
// of its own, or — artifact=true — from the program table or the store. The
// span was resolved into req.Span at the cached-compile boundary, so the hit
// event correlates to the requesting trace even though no compiler ran. rep
// holds the stages the lookup paid for and is nil when none was asked for.
func (c *Compiler) hitReport(ccf *CompiledCodeFunction, req CompileRequest, rep *CompileReport, artifact bool) *CompileReport {
	if sc, ok := c.traceSpan(req.Span); ok {
		c.emitCompile(sc, obs.TraceEvent{Name: ccf.Metrics.Name(), TNs: obs.TraceNow(), CacheHit: true}, nil)
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

// genMemo is the bounded map behind keyMemo, the program table and the
// fronts. It is generational (young + old maps): when the young generation
// fills, it becomes the old generation and a fresh young map starts — a key
// read from the old generation moves back to young, so steady churn evicts
// only keys nobody asked for since the last flip instead of wiping the whole
// memo. It holds at most 2×cap entries; cap is fixed where each instance is
// made.
type genMemo[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int // per-generation bound
	young map[K]V
	old   map[K]V
}

func (m *genMemo[K, V]) get(k K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.getLocked(k)
}

func (m *genMemo[K, V]) getLocked(k K) (V, bool) {
	if v, ok := m.young[k]; ok {
		return v, true
	}
	v, ok := m.old[k]
	if ok {
		m.putLocked(k, v) // promote: hot keys survive the next flip
	}
	return v, ok
}

func (m *genMemo[K, V]) put(k K, v V) (dropped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.putLocked(k, v)
}

// putLocked files v under k and returns how many entries a generation flip
// dropped to make room.
func (m *genMemo[K, V]) putLocked(k K, v V) (dropped int) {
	delete(m.old, k) // one generation per key, so size counts each once
	if m.young == nil {
		m.young = make(map[K]V)
	}
	if _, dup := m.young[k]; !dup && len(m.young) >= m.cap {
		dropped = len(m.old)
		m.old = m.young
		m.young = make(map[K]V, m.cap)
	}
	m.young[k] = v
	return dropped
}

// drop removes the entries pred holds for and returns how many it removed.
func (m *genMemo[K, V]) drop(pred func(V) bool) (n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, gen := range []map[K]V{m.young, m.old} {
		for k, v := range gen {
			if pred(v) {
				delete(gen, k)
				n++
			}
		}
	}
	return n
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
