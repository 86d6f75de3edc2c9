package core

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

func TestCompileCacheHitsAcrossCompilers(t *testing.T) {
	ResetCompileCache()
	k := kernel.New()
	k.Out = io.Discard
	fn := parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, x + 1]`)

	c1 := NewCompiler(k)
	ccf1, err := c1.FunctionCompileCached(fn)
	if err != nil {
		t.Fatal(err)
	}
	s := CompileCacheStatsNow()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first compile: %+v", s)
	}

	// A second compiler with the same (default) environments over the same
	// kernel must hit: the key is content-addressed, not compiler-identity.
	c2 := NewCompiler(k)
	ccf2, err := c2.FunctionCompileCached(fn)
	if err != nil {
		t.Fatal(err)
	}
	s = CompileCacheStatsNow()
	if s.Hits != 1 {
		t.Fatalf("expected a cache hit from an equivalent compiler: %+v", s)
	}
	if ccf2 != ccf1 {
		t.Fatal("cache hit must return the same compiled function")
	}
	if got := ccf2.CallRaw(int64(41)); got != int64(42) {
		t.Fatalf("cached function broken: %v", got)
	}

	// Surface spellings that desugar identically share an entry.
	sugar := parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, x + 1]`)
	if _, err := c1.FunctionCompileCached(sugar); err != nil {
		t.Fatal(err)
	}
	if s = CompileCacheStatsNow(); s.Hits != 2 {
		t.Fatalf("identical source must hit: %+v", s)
	}
}

func TestCompileCacheKeySensitivity(t *testing.T) {
	ResetCompileCache()
	k := kernel.New()
	k.Out = io.Discard
	fn := parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, x * 2]`)

	c := NewCompiler(k)
	if _, err := c.FunctionCompileCached(fn); err != nil {
		t.Fatal(err)
	}
	// A different Parallelism option compiles a different program.
	cp := NewCompiler(k)
	cp.Parallelism = 4
	if _, err := cp.FunctionCompileCached(fn); err != nil {
		t.Fatal(err)
	}
	// A different kernel must not share compiled wrappers (fallback and
	// engine escapes bind to the kernel).
	k2 := kernel.New()
	k2.Out = io.Discard
	if _, err := NewCompiler(k2).FunctionCompileCached(fn); err != nil {
		t.Fatal(err)
	}
	s := CompileCacheStatsNow()
	if s.Misses != 3 || s.Hits != 0 {
		t.Fatalf("option/kernel changes must miss: %+v", s)
	}
}

// TestCompileCacheKeyCoversEveryOption flips every code-affecting option one
// at a time and asserts each flip is a cache miss: no configuration that
// changes generated code may share a cache entry with the default build.
func TestCompileCacheKeyCoversEveryOption(t *testing.T) {
	ResetCompileCache()
	k := kernel.New()
	k.Out = io.Discard
	fn := parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, x * 3]`)

	base := NewCompiler(k)
	if _, err := base.FunctionCompileCached(fn); err != nil {
		t.Fatal(err)
	}
	flips := []struct {
		name string
		mut  func(c *Compiler)
	}{
		{"OptimizationLevel", func(c *Compiler) { c.Options.OptimizationLevel = 0 }},
		{"InlinePolicy", func(c *Compiler) { c.Options.InlinePolicy = "none" }},
		{"AbortHandling", func(c *Compiler) { c.Options.AbortHandling = !c.Options.AbortHandling }},
		{"DisableCopyElision", func(c *Compiler) { c.Options.DisableCopyElision = true }},
		{"Parallelism", func(c *Compiler) { c.Parallelism = 7 }},
		{"FuseLevel", func(c *Compiler) { c.FuseLevel = c.FuseLevel + 1 }},
		{"ProfileLevel", func(c *Compiler) { c.ProfileLevel = 1 }},
		{"Stencil", func(c *Compiler) { c.Stencil = true }},
	}
	for _, f := range flips {
		before := CompileCacheStatsNow()
		c := NewCompiler(k)
		f.mut(c)
		if _, err := c.FunctionCompileCached(fn); err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		after := CompileCacheStatsNow()
		if after.Misses != before.Misses+1 {
			t.Errorf("flipping %s must be a cache miss: before %+v after %+v", f.name, before, after)
		}
		if after.Hits != before.Hits {
			t.Errorf("flipping %s produced a cache hit: before %+v after %+v", f.name, before, after)
		}
	}
	// Sanity: the unmodified configuration still hits.
	if _, err := NewCompiler(k).FunctionCompileCached(fn); err != nil {
		t.Fatal(err)
	}
	if s := CompileCacheStatsNow(); s.Hits != 1 {
		t.Fatalf("default configuration must still hit: %+v", s)
	}
}

// One kernel's compiles fill only its own front: a kernel that compiles a
// thousand distinct functions evicts its own oldest, from its front and from
// the program table, while another kernel's function is still a front hit.
func TestOneKernelEvictsOnlyItsOwnFront(t *testing.T) {
	ResetCompileCache()
	prev := SetArtifactStore(nil)
	t.Cleanup(func() { SetArtifactStore(prev); ResetCompileCache() })
	quiet, noisy := session(t, "quiet"), session(t, "noisy")
	noisy.Stencil = true // the baseline configuration keeps a thousand compiles quick
	src := parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, x + 1]`)
	kept, err := quiet.FunctionCompileCached(src)
	if err != nil {
		t.Fatal(err)
	}
	flood := func(i int) expr.Expr {
		return parser.MustParse(fmt.Sprintf(`Function[{Typed[x, "MachineInteger"]}, x + %d]`, i+2))
	}
	const n = 1000
	for i := 0; i < n; i++ {
		if _, err := noisy.FunctionCompileCached(flood(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := CompileCacheStatsNow()
	if s.Evictions == 0 || s.Entries > 2*generation {
		t.Fatalf("%d compiles: %+v, want front evictions and at most %d programs", n, s, 2*generation)
	}
	if size := noisy.front().size(); size > 2*generation {
		t.Fatalf("the noisy kernel's front holds %d functions, bound %d", size, 2*generation)
	}
	again, rep, err := quiet.FunctionCompileCachedRequest(src, CompileRequest{Collect: true})
	if err != nil || !rep.CacheHit || again != kept {
		t.Fatalf("another kernel's compiles evicted this one's function: %+v, %v", rep, err)
	}
	if _, rep, err = noisy.FunctionCompileCachedRequest(flood(0), CompileRequest{Collect: true}); err != nil || rep.CacheHit || rep.ArtifactHit {
		t.Fatalf("the noisy kernel's oldest function outlived %d later ones: %+v, %v", n-1, rep, err)
	}
}

// Two kernels compiling one source at once run one compile: the other waits
// on the winner's flight, or finds its program in the table, and wraps that
// program for its own kernel.
func TestConcurrentKernelsRunOneCompile(t *testing.T) {
	ResetCompileCache()
	prev := SetArtifactStore(nil)
	t.Cleanup(func() { SetArtifactStore(prev); ResetCompileCache() })
	src := parser.MustParse(`Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1}, While[i <= n, s = s + i*i*i; i++]; s]]`)
	cs := []*Compiler{session(t, "one-compile-a"), session(t, "one-compile-b")}
	fns := make([]*CompiledCodeFunction, len(cs))
	reps := make([]*CompileReport, len(cs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			if fns[i], reps[i], err = c.FunctionCompileCachedRequest(src, CompileRequest{Collect: true}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	compiled := 0
	for i, rep := range reps {
		if !rep.CacheHit && !rep.ArtifactHit {
			compiled++
		}
		if fns[i].BoundKernel() != cs[i].Kernel {
			t.Fatalf("kernel %d was handed a function bound to another kernel", i)
		}
		if got := fns[i].CallRaw(int64(3)); got != int64(36) {
			t.Fatalf("kernel %d: f[3] = %v, want 36", i, got)
		}
	}
	if compiled != 1 || fns[0] == fns[1] || fns[0].Program != fns[1].Program {
		t.Fatalf("%d compiles; want one program under two functions", compiled)
	}
}
