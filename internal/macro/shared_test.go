package macro

import (
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
)

func rule(lhs, rhs string) pattern.Rule {
	return pattern.Rule{LHS: parser.MustParse(lhs), RHS: parser.MustParse(rhs)}
}

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

func TestDefaultEnvSharedAndFrozen(t *testing.T) {
	a, b := DefaultEnv(), DefaultEnv()
	if a == b {
		t.Fatal("DefaultEnv must return a distinct environment per call")
	}
	if a.parent != defaultRoot() || b.parent != defaultRoot() {
		t.Fatal("both children must chain to the one parsed rule set")
	}
	and := expr.Sym("And")
	if ra, rb := a.rulesFor(and), b.rulesFor(and); len(ra) == 0 || ra[0].Rule.LHS != rb[0].Rule.LHS {
		t.Fatal("two children must see the same parsed And rules, not two parses of them")
	}
	onlyInA := expr.Sym("OnlyInA")
	a.Register(onlyInA, rule("OnlyInA[x_]", "x"))
	if len(b.rulesFor(onlyInA)) != 0 {
		t.Fatal("a registration in one child leaked into another")
	}

	root := defaultRoot()
	x := expr.Sym("X")
	mustPanic(t, "Register", func() { root.Register(x, rule("X[a_]", "a")) })
	mustPanic(t, "RegisterConditioned", func() {
		root.RegisterConditioned(x, func(map[string]expr.Expr) bool { return true }, rule("X[a_]", "a"))
	})
	if len(root.rulesFor(x)) != 0 {
		t.Fatal("a refused registration still wrote to the root")
	}
}

func TestEmptyChildKeepsSig(t *testing.T) {
	root := defaultRoot()
	child := DefaultEnv()
	if child.Sig() != root.Sig() {
		t.Fatalf("an empty child must have its parent's signature: %x vs %x", child.Sig(), root.Sig())
	}
	if NewEnv(child).Sig() != root.Sig() {
		t.Fatal("a chain of empty children must have the root's signature")
	}
	child.Register(expr.Sym("Square"), rule("Square[x_]", "x*x"))
	if child.Sig() == root.Sig() {
		t.Fatal("one registration must change the signature")
	}
}

// A caller's rule for a head the bundled environment already has rules for
// is tried before the bundled ones (rulesFor is nearest-environment-first),
// here ahead of the paper's And[x_, y_] desugaring.
func TestCallerRulePrecedesLibrary(t *testing.T) {
	env := DefaultEnv()
	and := expr.Sym("And")
	library := env.rulesFor(and)
	env.Register(and, rule("And[x_, y_]", "MyAnd[x, y]"))
	out, err := env.Expand(parser.MustParse("And[a, b]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := expr.FullForm(out); got != "MyAnd[a, b]" {
		t.Fatalf("caller rule must win over the library's And[x_, y_]: %s", got)
	}
	// Forms the caller's rule does not match still reach the library.
	out, err = env.Expand(parser.MustParse("And[False, b, c]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := expr.FullForm(out); got != "False" {
		t.Fatalf("library rules must still apply behind the caller's: %s", got)
	}
	if again := DefaultEnv().rulesFor(and); len(again) != len(library) || again[0].Rule.LHS != library[0].Rule.LHS {
		t.Fatal("merging a child's rules must not write into the library's slice")
	}
}
