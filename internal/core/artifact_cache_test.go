package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// Tests for the compile cache's levels (ROADMAP item 4): singleflight
// coalescing, the generational source→key memo, and the persistent artifact
// store.

// withArtifactDir attaches a fresh store over dir for the test's duration
// and restores the previous (usually nil) store afterwards.
func withArtifactDir(t *testing.T, dir string) {
	t.Helper()
	prev := ArtifactStore()
	if _, err := EnableArtifactStore(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetArtifactStore(prev) })
}

func TestSingleflightCoalescesConcurrentFirstCompiles(t *testing.T) {
	ResetCompileCache()
	k := kernel.New()
	k.Out = io.Discard
	fn := parser.MustParse(`Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i++]; s]]`)

	const n = 16
	results := make([]*CompiledCodeFunction, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// One compiler per goroutine: the content key ignores compiler
			// identity, so they all race toward the same cache slot.
			c := NewCompiler(k)
			<-start
			ccf, _, err := c.FunctionCompileCachedRequest(fn, CompileRequest{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = ccf
		}(i)
	}
	close(start)
	wg.Wait()

	s := CompileCacheStatsNow()
	if s.Misses != 1 {
		t.Fatalf("singleflight must compile exactly once, got %d misses (%+v)", s.Misses, s)
	}
	// Every non-winner either waited on the flight (Coalesced) or arrived
	// after the insert (Hits); both must return the winner's function.
	if s.Hits+s.Coalesced != n-1 {
		t.Fatalf("hits (%d) + coalesced (%d) must account for the %d non-winners (%+v)",
			s.Hits, s.Coalesced, n-1, s)
	}
	for i, ccf := range results {
		if ccf != results[0] {
			t.Fatalf("goroutine %d got a different compiled function", i)
		}
	}
	if got := results[0].CallRaw(int64(4)); got != int64(30) {
		t.Fatalf("coalesced function broken: %v", got)
	}
}

func TestFastMemoHotKeysSurviveGenerationFlips(t *testing.T) {
	m := genMemo[[sha256.Size]byte, string]{cap: 4}
	key := func(s string) [sha256.Size]byte { return sha256.Sum256([]byte(s)) }
	hot := key("hot-key")
	m.put(hot, "hot")
	m.put(key("cold-key"), "cold")

	// Churn far past the old wholesale-wipe threshold, touching the hot key
	// between insertions the way a solver loop re-resolves its kernel.
	for i := 0; i < 10*m.cap; i++ {
		m.put(key(fmt.Sprintf("churn-%d", i)), "")
		if _, ok := m.get(hot); !ok {
			t.Fatalf("hot key evicted after %d churn insertions", i+1)
		}
		if got := m.size(); got > 2*m.cap {
			t.Fatalf("memo grew to %d entries; bound is 2×cap = %d", got, 2*m.cap)
		}
	}
	// The untouched cold key must have aged out — the memo is bounded, not
	// merely lucky.
	if _, ok := m.get(key("cold-key")); ok {
		t.Fatal("cold key survived sustained churn; generational eviction is not evicting")
	}
	if v, _ := m.get(hot); v != "hot" {
		t.Fatalf("hot key's value corrupted: %q", v)
	}
}

func TestArtifactStoreWarmStartAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	srcs := []struct{ src, arg, want string }{
		{`Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i++]; s]]`, "5", "55"},
		{`Function[{Typed[x, "MachineInteger"]}, x*x - 1]`, "7", "48"},
		{`Function[{Typed[x, "Real64"]}, x/2.0 + 1.5]`, "3.0", "3."},
	}

	// "Process" one: cold compiles populate the store.
	ResetCompileCache()
	withArtifactDir(t, dir)
	k1 := kernel.New()
	k1.Out = io.Discard
	c1 := NewCompiler(k1)
	for _, s := range srcs {
		ccf, rep, err := c1.FunctionCompileCachedRequest(parser.MustParse(s.src), CompileRequest{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil || rep.ArtifactHit {
			t.Fatalf("cold compile must not be an artifact hit: %+v", rep)
		}
		if got := apply(t, ccf, s.arg); got != s.want {
			t.Fatalf("cold %s(%s) = %s, want %s", s.src, s.arg, got, s.want)
		}
	}
	if st := ArtifactStore().Stats(); st.Writes != uint64(len(srcs)) || st.Entries != len(srcs) {
		t.Fatalf("cold phase must write every artifact: %+v", st)
	}

	// "Process" two: fresh kernel, fresh compiler, empty in-memory cache,
	// store reopened from disk. Every compile must be served by the disk
	// tier and produce bit-identical results.
	ResetCompileCache()
	SetArtifactStore(nil)
	withArtifactDir(t, dir)
	k2 := kernel.New()
	k2.Out = io.Discard
	c2 := NewCompiler(k2)
	for _, s := range srcs {
		ccf, rep, err := c2.FunctionCompileCachedRequest(parser.MustParse(s.src), CompileRequest{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep == nil || !rep.ArtifactHit {
			t.Fatalf("warm compile of %s must hit the disk tier: %+v", s.src, rep)
		}
		if got := apply(t, ccf, s.arg); got != s.want {
			t.Fatalf("warm %s(%s) = %s, want %s", s.src, s.arg, got, s.want)
		}
		if ccf.Metrics.Backend() != "closure-aot" {
			t.Fatalf("artifact-loaded function backend = %q, want closure-aot", ccf.Metrics.Backend())
		}
		if ccf.BoundKernel() != k2 {
			t.Fatal("artifact-loaded function must be rebound to the loading kernel")
		}
	}
	st := ArtifactStore().Stats()
	if st.Hits != uint64(len(srcs)) || st.Misses != 0 {
		t.Fatalf("warm phase must be all disk hits: %+v", st)
	}
	// The in-memory front counts artifact loads as misses (no compiled
	// entry existed in memory) — the disk stats above carry the hit signal.
	if cs := CompileCacheStatsNow(); cs.Misses != uint64(len(srcs)) {
		t.Fatalf("in-memory stats after warm start: %+v", cs)
	}

	// "Process" three finds one entry cut off inside its header (a crash in
	// the middle of a write, a full disk). The store tells by length and
	// checksum, drops the entry, and that one function is compiled again and
	// written back; the others still load, and every result is the same.
	entries, err := filepath.Glob(filepath.Join(dir, "*.wca"))
	if err != nil || len(entries) != len(srcs) {
		t.Fatalf("store entries: %v, %v", entries, err)
	}
	if err := os.Truncate(entries[0], 40); err != nil {
		t.Fatal(err)
	}
	ResetCompileCache()
	SetArtifactStore(nil)
	withArtifactDir(t, dir)
	k3 := kernel.New()
	k3.Out = io.Discard
	c3 := NewCompiler(k3)
	hits := 0
	for _, s := range srcs {
		ccf, rep, err := c3.FunctionCompileCachedRequest(parser.MustParse(s.src), CompileRequest{Collect: true})
		if err != nil {
			t.Fatalf("compile over a truncated store: %v", err)
		}
		if rep.ArtifactHit {
			hits++
		}
		if got := apply(t, ccf, s.arg); got != s.want {
			t.Fatalf("over a truncated store %s(%s) = %s, want %s", s.src, s.arg, got, s.want)
		}
	}
	if st := ArtifactStore().Stats(); st.CorruptDrops != 1 || hits != len(srcs)-1 || st.Writes != 1 || st.Entries != len(srcs) {
		t.Fatalf("one truncated entry must be one drop, one recompile and one rewrite; %d hits of %d, %+v", hits, len(srcs), st)
	}
}

// What an older build left in a shared store never serves this one. An entry
// under the previous key version is simply not addressed: the compile misses
// cleanly, runs the pipeline, and writes its own entry beside the old one —
// which an old binary, still asking under its own key, keeps getting. A
// payload in the previous module format that does sit under this build's key
// fails its magic, is dropped, and the function is compiled again and written
// back.
func TestArtifactStoreOldKeyVersionMissesAndRewrites(t *testing.T) {
	const src = `Function[{Typed[n, "MachineInteger"]},
		Module[{v = ConstantArray[0, n], i = 1}, While[i <= n, v[[i]] = i*i; i++]; v[[n]]]]`
	fn := parser.MustParse(src)
	for _, tc := range []struct {
		name, version, payload string
		misses, drops          uint64
		entries                int
	}{
		{"wolfc-key/v3 entry", "wolfc-key/v3", "WCLB0001 module serialised by a wolfc-key/v3 build", 1, 0, 2},
		{"wolfc-key/v4 entry", "wolfc-key/v4", "WCLB0002 module serialised by a wolfc-key/v4 build", 1, 0, 2},
		{"wolfc-key/v5 entry", "wolfc-key/v5", "WCLB0002 module serialised by a wolfc-key/v5 build, reference counts included", 1, 0, 2},
		{"WCLB0001 payload", cacheKeyVersion, "WCLB0001\x01\x04Main\x00", 0, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ResetCompileCache()
			keyMemo.reset()
			withArtifactDir(t, t.TempDir())
			k := kernel.New()
			k.Out = io.Discard
			c := NewCompiler(k)
			old, _, err := c.stableKey(tc.version, "", fn, nil)
			if err != nil {
				t.Fatal(err)
			}
			cur, _, err := c.stableKey(cacheKeyVersion, "", fn, nil)
			if err != nil {
				t.Fatal(err)
			}
			if (old == cur) != (tc.version == cacheKeyVersion) {
				t.Fatal("the key version must be part of the stable key")
			}
			ArtifactStore().Put(old, []byte(tc.payload))

			ccf, rep, err := c.FunctionCompileCachedRequest(fn, CompileRequest{Collect: true})
			if err != nil {
				t.Fatalf("compile over the old build's store: %v", err)
			}
			if rep == nil || rep.ArtifactHit {
				t.Fatalf("the old build's entry must not serve this compile: %+v", rep)
			}
			if got := apply(t, ccf, "6"); got != "36" {
				t.Fatalf("compiled result = %s, want 36", got)
			}
			st := ArtifactStore().Stats()
			if st.Misses != tc.misses || st.CorruptDrops != tc.drops || st.Writes != 2 || st.Entries != tc.entries {
				t.Fatalf("want %d clean misses, %d drops and a rewrite leaving %d entries: %+v", tc.misses, tc.drops, tc.entries, st)
			}
			if old != cur {
				if got, ok := ArtifactStore().Get(old); !ok || string(got) != tc.payload {
					t.Fatal("the old build's entry must stay what it was")
				}
			}
			// A fresh kernel is served the program the compile filed in the
			// table, and the store is not read: the versioned stable key names
			// the compile's whole input. That holds even once the old build's
			// payload is back under this build's key.
			if old == cur {
				ArtifactStore().DropUndecodable(cur)
				ArtifactStore().Put(cur, []byte(tc.payload))
			}
			st = ArtifactStore().Stats()
			k2 := kernel.New()
			k2.Out = io.Discard
			ccf, rep, err = NewCompiler(k2).FunctionCompileCachedRequest(fn, CompileRequest{Collect: true})
			if err != nil || !rep.ArtifactHit || stageNames(rep) != "key resident" || apply(t, ccf, "6") != "36" {
				t.Fatalf("a fresh kernel must be served the table's program: %+v, %v", rep, err)
			}
			if now := ArtifactStore().Stats(); now.Hits != st.Hits || now.Misses != st.Misses {
				t.Fatalf("a table hit read the store: %+v, then %+v", st, now)
			}
			// After a reset the store is read again, and decides: a fresh
			// compiler starts warm from the rewritten entry, or drops the old
			// build's payload once more and compiles.
			ResetCompileCache()
			_, rep, err = NewCompiler(k).FunctionCompileCachedRequest(fn, CompileRequest{Collect: true})
			if err != nil || rep == nil || rep.ArtifactHit != (old != cur) {
				t.Fatalf("after a reset the store decides: %+v, %v", rep, err)
			}
		})
	}
}

func TestArtifactStoreStencilRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ResetCompileCache()
	withArtifactDir(t, dir)
	src := `Function[{Typed[n, "MachineInteger"]}, n*n + 3]`

	k1 := kernel.New()
	k1.Out = io.Discard
	c1 := NewCompiler(k1)
	c1.Stencil = true
	ccf, _, err := c1.FunctionCompileCachedRequest(parser.MustParse(src), CompileRequest{})
	if err != nil {
		t.Fatal(err)
	}
	cold := apply(t, ccf, "10")

	ResetCompileCache()
	SetArtifactStore(nil)
	withArtifactDir(t, dir)
	k2 := kernel.New()
	k2.Out = io.Discard
	c2 := NewCompiler(k2)
	c2.Stencil = true
	warm, rep, err := c2.FunctionCompileCachedRequest(parser.MustParse(src), CompileRequest{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || !rep.ArtifactHit {
		t.Fatalf("stencil warm start must hit the disk tier: %+v", rep)
	}
	if got := apply(t, warm, "10"); got != cold {
		t.Fatalf("stencil artifact round-trip diverged: %s vs %s", got, cold)
	}
	if warm.Metrics.Backend() != "stencil-aot" {
		t.Fatalf("backend = %q, want stencil-aot", warm.Metrics.Backend())
	}
	// Stencil and full-pipeline compiles of the same source must not share
	// a stable key (the backend configuration joins it): a full compiler
	// must miss the store entry the stencil compiler wrote.
	c3 := NewCompiler(k2)
	if _, rep, err := c3.FunctionCompileCachedRequest(parser.MustParse(src), CompileRequest{Collect: true}); err != nil {
		t.Fatal(err)
	} else if rep != nil && rep.ArtifactHit {
		t.Fatal("full-pipeline compile hit the stencil compiler's artifact; backend options must join the stable key")
	}
}

func TestRegDepsNeverWrittenToDisk(t *testing.T) {
	dir := t.TempDir()
	ResetCompileCache()
	withArtifactDir(t, dir)
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[x, "MachineInteger"]}, x + 1]`)
	if ccf.Module == nil || !ccf.Module.Typed {
		t.Fatal("test premise: compiled module must be typed")
	}
	// White-box: registry calls are process-local — their baked targets die
	// with this process — so the gate must refuse to persist the module.
	// (Keys are raw SHA-256 sums; the store ignores any other length.)
	key := string(bytes.Repeat([]byte{0xab}, 32))
	ccf.RegDeps = []string{"someRegisteredFn"}
	c.maybeStoreArtifact(key, ccf)
	if st := ArtifactStore().Stats(); st.Writes != 0 || st.Entries != 0 {
		t.Fatalf("module with RegDeps was written to disk: %+v", st)
	}
	// Sanity: the same module without RegDeps is accepted.
	ccf.RegDeps = nil
	c.maybeStoreArtifact(key, ccf)
	if st := ArtifactStore().Stats(); st.Writes != 1 {
		t.Fatalf("RegDeps-free module must be written: %+v", st)
	}
}

func TestCachedCompilesRaceWithResetAndStore(t *testing.T) {
	dir := t.TempDir()
	ResetCompileCache()
	withArtifactDir(t, dir)
	k := kernel.New()
	k.Out = io.Discard

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewCompiler(k)
			for i := 0; i < 20; i++ {
				src := fmt.Sprintf(`Function[{Typed[x, "MachineInteger"]}, x + %d]`, i%5)
				ccf, _, err := c.FunctionCompileCachedRequest(parser.MustParse(src), CompileRequest{})
				if err != nil {
					t.Error(err)
					return
				}
				if got := ccf.CallRaw(int64(10)); got != int64(10+i%5) {
					t.Errorf("worker %d iter %d: got %v", w, i, got)
					return
				}
				if w == 0 && i%7 == 3 {
					ResetCompileCache()
				}
			}
		}(w)
	}
	wg.Wait()
}
