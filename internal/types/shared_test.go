package types

import (
	"testing"

	"wolfc/internal/parser"
)

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on the shared root must panic", what)
		}
	}()
	f()
}

func TestBuiltinSharedAndFrozen(t *testing.T) {
	a, b := Builtin(), Builtin()
	if a == b {
		t.Fatal("Builtin must return a distinct environment per call")
	}
	if a.parent != builtinRoot() || b.parent != builtinRoot() {
		t.Fatal("both children must chain to the one parsed standard library")
	}
	if a.Lookup("Plus")[0] != b.Lookup("Plus")[0] {
		t.Fatal("two children must see the same *FuncDef for Plus, not two parses of it")
	}
	a.DeclareFunction(&FuncDef{Name: "OnlyInA", Type: &Fn{Ret: TInt64}})
	a.DeclareClass("Ordered", "OnlyInA")
	if len(b.Lookup("OnlyInA")) != 0 || b.MemberOf(AtomicOf("OnlyInA"), "Ordered") {
		t.Fatal("a declaration in one child leaked into another")
	}

	root := builtinRoot()
	mustPanic(t, "DeclareFunction", func() { root.DeclareFunction(&FuncDef{Name: "X", Type: &Fn{Ret: TInt64}}) })
	mustPanic(t, "DeclareClass", func() { root.DeclareClass("Ordered", "X") })
	mustPanic(t, "DeclareType", func() { root.DeclareType("X") })
	mustPanic(t, "DeclareAlias", func() { root.DeclareAlias("X", "Integer64") })
	if len(root.Lookup("X")) != 0 || root.knownType("X") {
		t.Fatal("a refused declaration still wrote to the root")
	}
}

func TestEmptyChildKeepsSig(t *testing.T) {
	root := builtinRoot()
	child := Builtin()
	if child.Sig() != root.Sig() {
		t.Fatalf("an empty child must have its parent's signature: %x vs %x", child.Sig(), root.Sig())
	}
	if NewEnv(child).Sig() != root.Sig() {
		t.Fatal("a chain of empty children must have the root's signature")
	}
	child.DeclareType("MyDecimal")
	if child.Sig() == root.Sig() {
		t.Fatal("one declaration must change the signature")
	}
}

// A caller's overload for a name the library already declares is tried
// before the library's: Lookup is nearest-environment-first, and inference
// ranks overloads by their position in its result.
func TestCallerOverloadPrecedesLibrary(t *testing.T) {
	env := Builtin()
	library := env.Lookup("Plus")
	mine := &FuncDef{
		Name:   "Plus",
		Type:   env.MustParseSpec(parser.MustParse(`{"Integer64", "Integer64"} -> "Integer64"`)),
		Native: "caller_plus",
	}
	env.DeclareFunction(mine)
	got := env.Lookup("Plus")
	if len(got) != len(library)+1 || got[0] != mine || got[1] != library[0] {
		t.Fatalf("caller overload must come first, then the library's in order; got[0] = %+v", got[0])
	}
	if again := Builtin().Lookup("Plus"); len(again) != len(library) || again[0] != library[0] {
		t.Fatal("merging a child's overloads must not write into the library's slice")
	}
}
