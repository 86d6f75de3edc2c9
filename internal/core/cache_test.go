package core

import (
	"io"
	"testing"

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

func TestCompileCacheLRUEviction(t *testing.T) {
	ResetCompileCache()
	prev := setCompileCacheCapacity(2)
	defer setCompileCacheCapacity(prev)
	k := kernel.New()
	k.Out = io.Discard
	c := NewCompiler(k)
	srcs := []string{
		`Function[{Typed[x, "MachineInteger"]}, x + 10]`,
		`Function[{Typed[x, "MachineInteger"]}, x + 20]`,
		`Function[{Typed[x, "MachineInteger"]}, x + 30]`,
	}
	for _, s := range srcs {
		if _, err := c.FunctionCompileCached(parser.MustParse(s)); err != nil {
			t.Fatal(err)
		}
	}
	s := CompileCacheStatsNow()
	if s.Entries != 2 || s.Evictions != 1 {
		t.Fatalf("capacity 2 after 3 compiles: %+v", s)
	}
	// The oldest entry (x+10) was evicted: recompiling it misses.
	if _, err := c.FunctionCompileCached(parser.MustParse(srcs[0])); err != nil {
		t.Fatal(err)
	}
	if s = CompileCacheStatsNow(); s.Misses != 4 {
		t.Fatalf("evicted entry must miss: %+v", s)
	}
}
