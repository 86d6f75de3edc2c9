package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
	"wolfc/internal/testcorpus"
	"wolfc/internal/types"
)

var updateKeyClasses = flag.Bool("update-key-classes", false, "rewrite testdata/key_classes.golden from this build's cache keys")

// keyConfigs are the configurations every corpus function is keyed under:
// the module's own, the same again on a second compiler, and one change at a
// time to everything a key covers.
var keyConfigs = []struct {
	name string
	self func(name string) string
	set  func(c *core.Compiler)
}{
	{name: "base"},
	{name: "again"},
	{name: "self", self: func(name string) string {
		if name == "" {
			return "selfTest"
		}
		return ""
	}},
	{name: "stencil", set: func(c *core.Compiler) { c.Stencil = true }},
	{name: "fuse-off", set: func(c *core.Compiler) { c.FuseLevel = codegen.FuseOff }},
	{name: "declare", set: func(c *core.Compiler) {
		c.TypeEnv.DeclareFunction(&types.FuncDef{
			Name:   "Native`KeyTest",
			Type:   c.TypeEnv.MustParseSpec(parser.MustParse(`{"Integer64"} -> "Integer64"`)),
			Native: "identity_int",
		})
	}},
	{name: "macro", set: func(c *core.Compiler) {
		c.MacroEnv.Register(expr.Sym("KeyTestTwice"), pattern.Rule{
			LHS: parser.MustParse("KeyTestTwice[x_]"), RHS: parser.MustParse("x + x")})
	}},
	{name: "opt", set: func(c *core.Compiler) {
		c.CompileOpts = map[string]expr.Expr{"TargetSystem": expr.FromString("KeyTest")}
	}},
}

// TestCacheKeyClassesMatchPrintedKeys: over the corpus and keyConfigs, two
// (source, configuration) pairs have equal fast keys, and equal stable keys,
// exactly when they had at the commit before the keys were hashed from the
// binary encoding (they were FullForm strings then). The golden file names,
// for each pair, the first pair with the same key; it was written by that
// commit's key functions and is regenerated only when the corpus changes.
func TestCacheKeyClassesMatchPrintedKeys(t *testing.T) {
	var b strings.Builder
	firstFast, firstStable := map[string]int{}, map[string]int{}
	class := func(first map[string]int, key string, i int) int {
		if j, ok := first[key]; ok {
			return j
		}
		first[key] = i
		return i
	}
	i := 0
	for _, e := range testcorpus.All(t) {
		for _, nf := range e.Fns {
			for _, cfg := range keyConfigs {
				c, self := e.Compiler(), nf.Name
				if cfg.set != nil {
					cfg.set(c)
				}
				if cfg.self != nil {
					self = cfg.self(nf.Name)
				}
				fast, stable, err := core.CacheKeysForTest(c, self, nf.Fn)
				if err != nil {
					t.Fatalf("%s/%s %s: %v", e.Name, nf.Name, cfg.name, err)
				}
				fmt.Fprintf(&b, "%d %s/%s %s fast=%d stable=%d\n", i, e.Name, nf.Name, cfg.name,
					class(firstFast, fast, i), class(firstStable, stable, i))
				i++
			}
		}
	}
	path := filepath.Join("testdata", "key_classes.golden")
	if *updateKeyClasses {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("%d (source, configuration) pairs, testdata/key_classes.golden has %d", len(gl)-1, len(wl)-1)
	}
	for j := range gl {
		if gl[j] != wl[j] {
			t.Errorf("key classes differ:\n got: %s\nwant: %s", gl[j], wl[j])
		}
	}
}
