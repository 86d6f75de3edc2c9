package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
)

// The ISSUE 4 acceptance loop: s = 1^2 + ... + n^2 via While. With n = 10
// the entry block runs once, the loop header 11 times (10 passing checks +
// the final failing one), the body 10 times, and the exit once.
const profiledLoopSrc = `Function[{Typed[n, "MachineInteger"]},
	Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i = i + 1]; s]]`

// TestExactBlockCountsUnderProfiling asserts exact per-block execution
// counts at ProfileLevel > 0 — under full fusion (whose dispatch-skipping
// shortcuts must be disabled by profiling) and with fusion off.
func TestExactBlockCountsUnderProfiling(t *testing.T) {
	for _, fuse := range []struct {
		label string
		level int
	}{{"fuse-full", 0}, {"fuse-off", codegen.FuseOff}} {
		t.Run(fuse.label, func(t *testing.T) {
			k := kernel.New()
			k.Out = io.Discard
			c := NewCompiler(k)
			c.FuseLevel = fuse.level
			c.ProfileLevel = 1
			ccf, err := c.FunctionCompile(parser.MustParse(profiledLoopSrc))
			if err != nil {
				t.Fatal(err)
			}
			if got := ccf.CallRaw(int64(10)); got != int64(385) {
				t.Fatalf("profiled loop computed %v, want 385", got)
			}
			main := ccf.Program.Main
			if !main.Profiled() {
				t.Fatal("ProfileLevel=1 did not instrument the function")
			}
			want := map[string]uint64{
				"start":      1,
				"while_head": 11,
				"while_body": 10,
				"while_exit": 1,
			}
			seen := map[string]uint64{}
			for _, bp := range main.BlockProfiles() {
				seen[bp.Label] = bp.Count
				if bp.Label == "while_head" && !bp.LoopHeader {
					t.Error("while_head not flagged as a loop header")
				}
			}
			for label, count := range want {
				if seen[label] != count {
					t.Errorf("block %q executed %d times, want %d (all: %v)",
						label, seen[label], count, seen)
				}
			}
			if table := main.ProfileTable(); table == "" {
				t.Error("ProfileTable is empty for a profiled function")
			}
			main.ResetProfile()
			for _, bp := range main.BlockProfiles() {
				if bp.Count != 0 {
					t.Fatalf("ResetProfile left block %q at %d", bp.Label, bp.Count)
				}
			}
		})
	}
}

// TestBlockCountsMatchBlockDispatch: the region tree (ISSUE 19) enters every
// TWIR block exactly as often as the block-dispatch loop it replaced did. The
// golden counts were taken at the commit before it, on a program with nested
// loops, an If in a loop, a Break and a Return from inside a loop.
func TestBlockCountsMatchBlockDispatch(t *testing.T) {
	const src = `Function[{Typed[n, "MachineInteger"]},
	Module[{s = 0, i = 1, j = 1},
		While[i <= n,
			j = 1;
			While[j <= i, If[EvenQ[i + j], s = s + i*j, s = s - 1]; If[s > 300, Break[]]; j = j + 1];
			If[s > 1000, Return[s]];
			i = i + 1];
		s]]`
	golden := []struct {
		label string
		count uint64
	}{
		{"start", 1}, {"while_head", 41}, {"while_body", 40}, {"while_exit", 1},
		{"while_head", 71}, {"while_body", 64}, {"while_exit", 40},
		{"then", 34}, {"else", 30}, {"after_if", 64}, {"then", 33}, {"else", 31}, {"then", 0}, {"else", 40},
	}
	for _, fuse := range []int{0, codegen.FuseOff} {
		k := kernel.New()
		k.Out = io.Discard
		c := NewCompiler(k)
		c.FuseLevel, c.ProfileLevel = fuse, 1
		ccf, err := c.FunctionCompile(parser.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		if got := ccf.CallRaw(int64(40)); got != int64(672) {
			t.Fatalf("fuse=%d: computed %v, want 672", fuse, got)
		}
		rows := ccf.Program.Main.BlockProfiles()
		if len(rows) != len(golden) {
			t.Fatalf("fuse=%d: %d blocks, golden has %d", fuse, len(rows), len(golden))
		}
		for i, r := range rows {
			if r.Label != golden[i].label || r.Count != golden[i].count {
				t.Errorf("fuse=%d: block %d is %s entered %d times, golden %s %d", fuse, i, r.Label, r.Count, golden[i].label, golden[i].count)
			}
			// Loop headers are the targets of back edges. (Block dispatch
			// flagged any target of a jump to an earlier block, so it also
			// flagged the inner while_exit, where the Break lands.)
			if r.LoopHeader != (r.Label == "while_head") {
				t.Errorf("fuse=%d: block %d (%s) loop header = %v", fuse, i, r.Label, r.LoopHeader)
			}
		}
	}
}

// TestUnprofiledHasNoCounters: the default compile carries no profiling
// state at all (the zero-overhead contract for ProfileLevel = 0).
func TestUnprofiledHasNoCounters(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	ccf, err := NewCompiler(k).FunctionCompile(parser.MustParse(profiledLoopSrc))
	if err != nil {
		t.Fatal(err)
	}
	if ccf.Program.Main.Profiled() {
		t.Fatal("default compile is profiled")
	}
	if ccf.Program.Main.BlockProfiles() != nil {
		t.Fatal("default compile has block profiles")
	}
}

// TestInvokeAndFallbackMetrics checks the invocation-boundary recording:
// a successful Apply counts an invocation, an overflowing one counts a
// fallback (F2), and the counters live on ccf.Metrics.
func TestInvokeAndFallbackMetrics(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	k := kernel.New()
	k.Out = io.Discard
	c := NewCompiler(k)
	ccf, err := c.FunctionCompile(parser.MustParse(
		`Function[{Typed[n, "MachineInteger"]}, n*n*n*n*n]`))
	if err != nil {
		t.Fatal(err)
	}
	if ccf.Metrics == nil {
		t.Fatal("compiled function has no metrics block")
	}
	if _, err := ccf.Apply([]expr.Expr{expr.FromInt64(3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ccf.Apply([]expr.Expr{expr.FromInt64(10000000)}); err != nil {
		t.Fatal(err)
	}
	s := ccf.Metrics.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Invocations = %d, want 1 (the overflow run is not a completed invoke)", s.Count)
	}
	if s.Fallbacks != 1 {
		t.Fatalf("Fallbacks = %d, want 1", s.Fallbacks)
	}
	if s.Backend != "closure" {
		t.Fatalf("Backend = %q", s.Backend)
	}
	if s.TotalNs == 0 {
		t.Fatal("latency sum is zero after a timed invocation")
	}
	// What /metrics serves carries the families the runtime and the compile
	// cache register with obs, not only obs's own.
	var metrics strings.Builder
	obs.RenderMetrics(&metrics)
	for _, want := range []string{
		"wolfc_exc_overflow_total", "wolfc_exc_depth_total",
		"wolfc_compile_cache_misses_total", "wolfc_compile_cache_coalesced_total",
		"wolfc_compile_cache_entries", "wolfc_compile_cache_hit_ratio",
		"wolfc_compile_cache_resident_hits_total",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("the exposition lacks %s", want)
		}
	}
}

// TestAbortCountersSettle aborts the kernel while 8 goroutines run one
// compiled function through Apply, then requires the abort counter to equal
// the observed $Aborted results and the invocation counter the completed
// calls, exactly.
func TestAbortCountersSettle(t *testing.T) {
	prevObs := obs.SetEnabled(true)
	defer obs.SetEnabled(prevObs)

	k := kernel.New()
	k.Out = io.Discard
	ccf, err := NewCompiler(k).FunctionCompile(parser.MustParse(stressKernelSrc))
	if err != nil {
		t.Fatal(err)
	}
	n := 20_000
	tv := runtime.NewTensor(runtime.KR64, n)
	for i := range tv.F {
		tv.F[i] = 0.0001 * float64(i)
	}
	tv.MarkShared()
	args := []expr.Expr{runtime.Box(tv, ccf.ParamTypes[0]), expr.FromInt64(200)}

	var wg sync.WaitGroup
	var aborted, completed atomic.Uint64
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for r := 0; r < 30; r++ {
				out, err := ccf.Apply(args)
				if err != nil {
					t.Error(err)
					return
				}
				if out == expr.SymAborted {
					aborted.Add(1)
				} else {
					completed.Add(1)
				}
			}
		}()
	}
	close(start)
	k.Abort()
	wg.Wait()
	k.ClearAbort()

	if aborted.Load() == 0 {
		t.Fatal("abort was never observed")
	}
	s := ccf.Metrics.Snapshot()
	if s.Aborts != aborted.Load() {
		t.Fatalf("abort counter %d != observed $Aborted results %d", s.Aborts, aborted.Load())
	}
	if s.Count != completed.Load() {
		t.Fatalf("invocation counter %d != completed calls %d", s.Count, completed.Load())
	}
}

// TestCompileCacheSnapshotResetRace is the documented snapshot/reset
// contract under -race: concurrent compiles, snapshots, and resets must
// not race, and no snapshot shows more programs than the table holds.
func TestCompileCacheSnapshotResetRace(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	k := kernel.New()
	k.Out = io.Discard
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewCompiler(k)
			for i := 0; i < 20; i++ {
				src := fmt.Sprintf(`Function[{Typed[x, "MachineInteger"]}, x + %d]`, i%5)
				if _, err := c.FunctionCompileCached(parser.MustParse(src)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			ResetCompileCache()
		}
	}()
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := CompileCacheStatsNow()
			if s.Entries < 0 || s.Entries > 256 {
				t.Errorf("impossible entry count %d", s.Entries)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapDone
}

// TestInvalidationIsNotEviction: redefining a symbol retires its registry
// entry, and the tiering engine drops the functions that call it from its
// kernel's front — code that bakes registry entries lives nowhere else. That
// is an Invalidation, never an Eviction: the eviction counter stays a pure
// capacity-pressure signal.
func TestInvalidationIsNotEviction(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	c := session(t, "invalidation")
	tiering := EnableTieringWith(c, TierPolicy{Workers: 1})
	defer tiering.Close()
	if _, err := c.reg().Reserve("regHelper", &types.Fn{Params: []types.Type{types.TInt64}, Ret: types.TInt64}, nil); err != nil {
		t.Fatal(err)
	}
	calls := parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, regHelper[x] + 1]`)
	plain := parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, x * 2]`)
	dependent, err := c.FunctionCompileCached(calls)
	if err != nil {
		t.Fatal(err)
	}
	if len(dependent.RegDeps) != 1 {
		t.Fatalf("premise: the call must resolve through the registry (RegDeps %v)", dependent.RegDeps)
	}
	if _, err := c.FunctionCompileCached(plain); err != nil {
		t.Fatal(err)
	}
	if s := CompileCacheStatsNow(); s.Entries != 1 {
		t.Fatalf("only the registry-free program belongs in the table: %+v", s)
	}

	if _, err := c.Kernel.Run(parser.MustParse("regHelper[x_] := x + 7")); err != nil {
		t.Fatal(err)
	}
	s := CompileCacheStatsNow()
	if s.Invalidations != 1 || s.Evictions != 0 {
		t.Fatalf("retiring one dependency: %+v, want 1 invalidation and no evictions", s)
	}
	if _, rep, err := c.FunctionCompileCachedRequest(plain, CompileRequest{Collect: true}); err != nil || !rep.CacheHit {
		t.Fatalf("a function that calls no retired entry must stay: %+v, %v", rep, err)
	}
	if again, rep, err := c.FunctionCompileCachedRequest(calls, CompileRequest{Collect: true}); err == nil && (rep.CacheHit || again == dependent) {
		t.Fatal("a function that bakes a retired entry was served again")
	}
}

// TestProfileLevelJoinsCacheKey: a profiled and an unprofiled compile of
// the same source must not share a cache entry (the profiled program has
// different code).
func TestProfileLevelJoinsCacheKey(t *testing.T) {
	ResetCompileCache()
	defer ResetCompileCache()
	k := kernel.New()
	k.Out = io.Discard
	c := NewCompiler(k)
	plain, err := c.FunctionCompileCached(parser.MustParse(profiledLoopSrc))
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCompiler(k)
	c2.ProfileLevel = 1
	profiled, err := c2.FunctionCompileCached(parser.MustParse(profiledLoopSrc))
	if err != nil {
		t.Fatal(err)
	}
	if plain == profiled {
		t.Fatal("ProfileLevel=1 compile was served the unprofiled cached program")
	}
	if !profiled.Program.Main.Profiled() || plain.Program.Main.Profiled() {
		t.Fatal("profiling state crossed the cache boundary")
	}
}

// TestDeclinedFoldCountsNoException: the constant folder runs a throwing
// native's runtime function on constant operands and declines the fold when
// it throws. That is not a run-time exception, so compiling leaves the
// /metrics exception counters alone; running the code counts its one throw.
func TestDeclinedFoldCountsNoException(t *testing.T) {
	count := func(name string) uint64 {
		for _, c := range obs.Counters() {
			if c.Name() == name {
				return c.Value()
			}
		}
		t.Fatalf("no counter %s", name)
		return 0
	}
	before := map[string]uint64{}
	for _, name := range []string{"exc_divide_by_zero", "exc_overflow"} {
		before[name] = count(name)
	}
	c := newCompiler()
	zero := compile(t, c, `Function[{}, Quotient[1, 0]]`)
	compile(t, c, `Function[{}, -9223372036854775807 - 2]`)
	for name, n := range before {
		if got := count(name); got != n {
			t.Errorf("compiling moved %s from %d to %d", name, n, got)
		}
	}
	zero.Apply(nil)
	if got := count("exc_divide_by_zero"); got != before["exc_divide_by_zero"]+1 {
		t.Errorf("running Quotient[1, 0] moved exc_divide_by_zero from %d to %d, want one more", before["exc_divide_by_zero"], got)
	}
}
