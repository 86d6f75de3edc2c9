package core

import (
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"wolfc/internal/artifact"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
	"wolfc/internal/pattern"
	"wolfc/internal/types"
)

// countedMacroEnv is a macro environment with one conditioned rule whose
// condition counts how often it is asked: every expansion of a source that
// mentions CountedTwice asks at least once.
func countedMacroEnv(asked *atomic.Int64) *macro.Env {
	env := macro.DefaultEnv()
	env.RegisterConditioned(expr.Sym("CountedTwice"),
		func(map[string]expr.Expr) bool { asked.Add(1); return true },
		pattern.Rule{LHS: parser.MustParse("CountedTwice[x_]"), RHS: parser.MustParse("x + x")})
	return env
}

var countedSource = parser.MustParse(`Function[{Typed[n, "MachineInteger"]}, CountedTwice[n] + 1]`)

// coldCaches empties both cache levels and the key memo and attaches a fresh
// in-memory artifact store for the test.
func coldCaches(t testing.TB) {
	t.Helper()
	ResetCompileCache()
	keyMemo.reset()
	prev := SetArtifactStore(artifact.OpenMemory())
	t.Cleanup(func() { SetArtifactStore(prev); ResetCompileCache() })
}

func compilerOn(env *macro.Env) *Compiler {
	k := kernel.New()
	k.Out = io.Discard
	c := NewCompiler(k)
	c.MacroEnv = env
	return c
}

// The key memo is one per process, so the second compiler to meet a source
// under the same environments does not expand its macros — and that is all it
// is spared: each kernel has a front of its own, so it misses there, is
// served the program table's code, and gets a function of its own. A compiler
// whose environment changed asks under another key.
func TestSharedKeyMemoIsEnvironmentScoped(t *testing.T) {
	coldCaches(t)
	var asked atomic.Int64
	env := countedMacroEnv(&asked)
	c1, c2 := compilerOn(env), compilerOn(env)
	req := CompileRequest{Collect: true}

	ccf1, rep, err := c1.FunctionCompileCachedRequest(countedSource, req)
	if err != nil || rep.CacheHit || rep.ArtifactHit {
		t.Fatalf("first compile: %+v, %v", rep, err)
	}
	expansion := asked.Load()
	if expansion == 0 {
		t.Fatal("test premise: expanding the source asks the counted condition")
	}
	ccf2, rep, err := c2.FunctionCompileCachedRequest(countedSource, req)
	if err != nil || !rep.ArtifactHit || rep.CacheHit {
		t.Fatalf("second compiler must miss its front and be served the table's program: %+v, %v", rep, err)
	}
	if asked.Load() != expansion {
		t.Errorf("second compiler expanded macros: condition asked %d times, then %d", expansion, asked.Load())
	}
	if ccf2 == ccf1 || ccf2.BoundKernel() != c2.Kernel {
		t.Error("second compiler must hold its own function, bound to its own kernel")
	}
	if s := CompileCacheStatsNow(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("both compiles are in-memory misses: %+v", s)
	}

	// More compilers, each on a kernel of its own, at once (the -race run
	// watches the memo and the shared macro environment).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, rep, err := compilerOn(env).FunctionCompileCachedRequest(countedSource, req)
			if err != nil || !rep.ArtifactHit {
				t.Errorf("concurrent compiler: %+v, %v", rep, err)
			}
		}()
	}
	wg.Wait()
	if asked.Load() != expansion {
		t.Errorf("a memo hit expanded macros: condition asked %d times, then %d", expansion, asked.Load())
	}

	// c2's type environment changes: its keys change, so it expands and
	// compiles again; c1 still finds its function in memory.
	before, err := c2.contentKey(cacheKeyVersion, "", countedSource)
	if err != nil {
		t.Fatal(err)
	}
	c2.TypeEnv.DeclareFunction(&types.FuncDef{
		Name:   "Native`KeyTest",
		Type:   c2.TypeEnv.MustParseSpec(parser.MustParse(`{"Integer64"} -> "Integer64"`)),
		Native: "identity_int",
	})
	if after, _ := c2.contentKey(cacheKeyVersion, "", countedSource); after == before {
		t.Error("a declaration must change the fast key")
	}
	if _, rep, err = c2.FunctionCompileCachedRequest(countedSource, req); err != nil || rep.CacheHit || rep.ArtifactHit {
		t.Errorf("after its environment changed c2 must compile again: %+v, %v", rep, err)
	}
	if asked.Load() == expansion {
		t.Error("c2 did not expand under its new environment")
	}
	if again, rep, err := c1.FunctionCompileCachedRequest(countedSource, req); err != nil || !rep.CacheHit || again != ccf1 {
		t.Errorf("c1's entry must be untouched: %+v, %v", rep, err)
	}
}

// A compile that misses both cache levels expands the source's macros once:
// the expansion that found the key is the one the pipeline starts from.
func TestColdCompileExpandsMacrosOnce(t *testing.T) {
	coldCaches(t)
	var asked atomic.Int64
	c := compilerOn(countedMacroEnv(&asked))
	if _, err := c.FunctionCompileRequest(countedSource, CompileRequest{}); err != nil {
		t.Fatal(err)
	}
	uncached := asked.Swap(0)
	ccf, rep, err := c.FunctionCompileCachedRequest(countedSource, CompileRequest{Collect: true})
	if err != nil || rep.CacheHit || rep.ArtifactHit {
		t.Fatalf("cold cached compile: %+v, %v", rep, err)
	}
	if got := asked.Load(); got != uncached || got == 0 {
		t.Errorf("cold cached compile asked the condition %d times, an uncached compile asks %d", got, uncached)
	}
	if got := apply(t, ccf, "20"); got != "41" {
		t.Errorf("compiled from the handed-down expansion: f[20] = %s, want 41", got)
	}
	if rep.Stages[0].Name != "key" || rep.Stages[1].Name != "macro" {
		t.Errorf("a miss reports the key stage before the pipeline's: %+v", rep.Stages)
	}
}

// The keys spell the configuration out field by field; a field of
// passes.Options they forgot would let two different compiles share an entry.
func TestEveryPassOptionIsKeyed(t *testing.T) {
	fn := parser.MustParse(`Function[{Typed[n, "MachineInteger"]}, n + 1]`)
	c := newCompiler()
	base, err := c.contentKey(cacheKeyVersion, "", fn)
	if err != nil {
		t.Fatal(err)
	}
	opts := reflect.TypeOf(passes.Options{})
	for i := 0; i < opts.NumField(); i++ {
		c := newCompiler()
		f := reflect.ValueOf(&c.Options).Elem().Field(i)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			t.Fatalf("passes.Options.%s: teach this test and contentKey its kind", opts.Field(i).Name)
		}
		if key, _ := c.contentKey(cacheKeyVersion, "", fn); key == base {
			t.Errorf("passes.Options.%s is not part of the cache key", opts.Field(i).Name)
		}
	}
}
