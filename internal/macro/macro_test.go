package macro

import (
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
)

func expand(t *testing.T, src string) string {
	t.Helper()
	env := DefaultEnv()
	out, err := env.Expand(parser.MustParse(src), nil)
	if err != nil {
		t.Fatalf("expand %q: %v", src, err)
	}
	return expr.FullForm(ExpandSlots(out))
}

func TestAndMacroFromPaper(t *testing.T) {
	// §4.2: the six And rules.
	cases := map[string]string{
		// Rule 2/3: constant folding. A first operand before a deciding
		// False is still evaluated, for its effects, as the interpreter does.
		"And[False, a]": "False",
		"And[a, False]": "CompoundExpression[a, False]",
		"Or[a, True]":   "CompoundExpression[a, True]",
		// Rule 4: skip a leading True. And[True, a] -> And[a] -> a === True.
		"And[True, a]": "SameQ[a, True]",
		// Rule 1: unary.
		"And[a]": "SameQ[a, True]",
		// Rule 5: short circuit.
		"And[a, b]": "If[SameQ[a, True], SameQ[b, True], False]",
		// Rule 6: n-ary nesting (then rule 5 twice).
		"And[a, b, c]": "If[SameQ[If[SameQ[a, True], SameQ[b, True], False], True], SameQ[c, True], False]",
	}
	for src, want := range cases {
		if got := expand(t, src); got != want {
			t.Errorf("expand(%s) = %s, want %s", src, got, want)
		}
	}
}

func TestIfConstantFolding(t *testing.T) {
	cases := map[string]string{
		"If[True, a, b]":  "a",
		"If[False, a, b]": "b",
		"If[True, a]":     "a",
		"If[False, a]":    "Null",
		"Not[Not[p]]":     "SameQ[p, True]",
	}
	for src, want := range cases {
		if got := expand(t, src); got != want {
			t.Errorf("expand(%s) = %s, want %s", src, got, want)
		}
	}
}

func TestLoopDesugaring(t *testing.T) {
	got := expand(t, "For[i = 0, i < 5, i = i + 1, f[i]]")
	if !strings.Contains(got, "While[Less[i, 5]") {
		t.Fatalf("For should lower to While: %s", got)
	}
	got = expand(t, "Do[f[j], {j, 1, 10}]")
	if !strings.Contains(got, "While[LessEqual[j,") || !strings.Contains(got, "Module[") {
		t.Fatalf("Do should lower to Module+While: %s", got)
	}
}

func TestIncrementHygiene(t *testing.T) {
	// The `old` temporary introduced by the Increment macro must not
	// capture a user variable also named old.
	got := expand(t, "Module[{old = 5}, old + Increment[old]]")
	// The expansion introduces a fresh name like old`h1, distinct from the
	// user's old.
	if !strings.Contains(got, "old`h") {
		t.Fatalf("expected hygienic rename in %s", got)
	}
	// The user's own 'old' must still appear.
	if !strings.Contains(got, "Set[old, Plus[old, 1]]") {
		t.Fatalf("user variable mangled: %s", got)
	}
}

func TestSlotFunctionNormalisation(t *testing.T) {
	got := expand(t, "(#1 + #2 &)[3, 4]")
	if strings.Contains(got, "Slot") {
		t.Fatalf("slots must be eliminated: %s", got)
	}
	if !strings.Contains(got, "Function[List[slot`h") {
		t.Fatalf("expected named-parameter Function: %s", got)
	}
	// Nested slot functions keep their slots separate.
	nested := expand(t, "(Map[# + 1 &, #] &)[{1, 2}]")
	if strings.Contains(nested, "Slot") {
		t.Fatalf("nested slots must be eliminated: %s", nested)
	}
}

func TestFunctionalPrimitiveLowering(t *testing.T) {
	for src, needle := range map[string]string{
		"Map[f, lst]":         "Native`ListNew",
		"Fold[f, x, lst]":     "While[LessEqual[",
		"NestList[f, x, 10]":  "Native`SetPartUnsafe",
		"Table[i^2, {i, 10}]": "Native`ListNew",
		"Total[v]":            "Native`PartUnsafe[v, 1]",
	} {
		got := expand(t, src)
		if !strings.Contains(got, needle) {
			t.Errorf("expand(%s) missing %q:\n%s", src, needle, got)
		}
	}
}

func TestConditionedMacro(t *testing.T) {
	// Paper §4.7: a macro predicated on the TargetSystem option rewrites
	// Map to CUDA`Map only when compiling for CUDA.
	env := NewEnv(DefaultEnv())
	env.RegisterConditioned(expr.Sym("Map"),
		func(opts map[string]expr.Expr) bool {
			v, ok := opts["TargetSystem"]
			return ok && expr.SameQ(v, expr.FromString("CUDA"))
		},
		pattern.Rule{
			LHS: parser.MustParse("Map[f_, lst_]"),
			RHS: parser.MustParse("CUDA`Map[f, lst]"),
		})

	cuda := map[string]expr.Expr{"TargetSystem": expr.FromString("CUDA")}
	out, err := env.Expand(parser.MustParse("Map[g, data]"), cuda)
	if err != nil {
		t.Fatal(err)
	}
	if expr.FullForm(out) != "CUDA`Map[g, data]" {
		t.Fatalf("CUDA map = %s", expr.FullForm(out))
	}
	// Without the option the default lowering applies.
	out, err = env.Expand(parser.MustParse("Map[g, data]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(expr.FullForm(out), "CUDA") {
		t.Fatalf("CUDA macro leaked into default compile: %s", expr.FullForm(out))
	}
}

func TestUserEnvOverridesDefault(t *testing.T) {
	// A user environment chained onto the default wins for its heads.
	env := NewEnv(DefaultEnv())
	env.Register(expr.Sym("Square"), pattern.Rule{
		LHS: parser.MustParse("Square[x_]"),
		RHS: parser.MustParse("x*x"),
	})
	out, err := env.Expand(parser.MustParse("Square[3 + a]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if expr.FullForm(out) != "Times[Plus[3, a], Plus[3, a]]" {
		t.Fatalf("user macro = %s", expr.FullForm(out))
	}
}

func TestFixedPointTermination(t *testing.T) {
	// A pathological self-rewriting macro must hit the round cap, not hang.
	env := NewEnv(nil)
	env.Register(expr.Sym("Loop"), pattern.Rule{
		LHS: parser.MustParse("Loop[x_]"),
		RHS: parser.MustParse("Loop[Loop[x]]"),
	})
	if _, err := env.Expand(parser.MustParse("Loop[1]"), nil); err == nil {
		t.Fatal("divergent macro must be reported")
	}
}

func TestWhichLowering(t *testing.T) {
	got := expand(t, "Which[a, 1, b, 2]")
	want := "If[SameQ[a, True], 1, If[SameQ[b, True], 2, Null]]"
	if got != want {
		t.Fatalf("Which = %s, want %s", got, want)
	}
}

func TestComparisonChains(t *testing.T) {
	got := expand(t, "Less[a, b, c]")
	if !strings.Contains(got, "Less[a, b]") || !strings.Contains(got, "Less[b, c]") {
		t.Fatalf("chain = %s", got)
	}
}
