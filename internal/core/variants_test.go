package core

import (
	"fmt"
	"math"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
)

// The generated operand-mode variants (codegen/fusion_modes.go) against the
// interpreter: every generated op, with each operand a register, a literal
// and a fused subtree, as the root of a tree and inside one, with fusion on
// and off. On an edge the question
// is not only what the answer is but who gives it: compiled code must serve
// exactly the calls whose exact result is a machine integer and throw into
// the fallback on the rest.

const (
	minInt = "(-9223372036854775807 - 1)" // folds to the literal; -9223372036854775808 does not parse as one
	maxInt = "9223372036854775807"
)

func variantConfigs() map[string]func(*Compiler) {
	return map[string]func(*Compiler){
		"fused":   func(*Compiler) {},
		"unfused": func(c *Compiler) { c.FuseLevel = codegen.FuseOff },
	}
}

// operandShapes are the ways to write one operand whose value is v: the
// parameter p (a register), the literal v (left out when v is empty: a value
// with no literal, NaN), and a tree over p and p2, which both hold v.
func operandShapes(p, v, combine string) []string {
	shapes := []string{p, fmt.Sprintf(combine, p, p+"2")}
	if v != "" {
		shapes = append(shapes, v)
	}
	return shapes
}

// forEachShapePair compiles body(x, y) under both configurations for every
// pair of operand shapes. Literal x literal is folded before it reaches the
// backend, except at optimisation level 0 (and in the baseline tier, which
// runs no passes): that pair runs there.
func forEachShapePair(t *testing.T, params, xv, yv, combine string, body func(x, y string) string,
	check func(label string, ccf *CompiledCodeFunction)) {
	t.Helper()
	for _, x := range operandShapes("a", xv, combine) {
		for _, y := range operandShapes("b", yv, combine) {
			configs := variantConfigs()
			if x == xv && y == yv {
				configs = map[string]func(*Compiler){"unoptimised": func(c *Compiler) { c.Options.OptimizationLevel = 0 }}
			}
			src := fmt.Sprintf("Function[{%s}, %s]", params, body(x, y))
			for name, cfg := range configs {
				c := newCompiler()
				cfg(c)
				ccf, err := c.FunctionCompile(parser.MustParse(src))
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				check(name+": "+src, ccf)
			}
		}
	}
}

const intParams = `Typed[a, "MachineInteger"], Typed[a2, "MachineInteger"], Typed[b, "MachineInteger"], Typed[b2, "MachineInteger"], Typed[z, "MachineInteger"]`

// intArgs are the arguments for intParams with a = a2 = xv, b = b2 = yv and
// z = 0; minInt is an expression until it is evaluated.
func intArgs(t *testing.T, xv, yv string) []expr.Expr {
	t.Helper()
	k := newCompiler().Kernel
	var args []expr.Expr
	for _, s := range []string{xv, xv, yv, yv, "0"} {
		v, err := k.EvalGuarded(parser.MustParse(s))
		if err != nil {
			t.Fatal(err)
		}
		args = append(args, v)
	}
	return args
}

// checkAgainstInterpreter applies ccf to the interpreter's own arguments and
// requires: the interpreter's answer is a machine integer iff the compiled
// body served the call, and then the two are the same.
func checkAgainstInterpreter(t *testing.T, label string, ccf *CompiledCodeFunction, args []expr.Expr) {
	t.Helper()
	want, err := ccf.compiler.Kernel.EvalGuarded(expr.New(ccf.Source, args...))
	if err != nil {
		want = expr.FromString(err.Error()) // Mod by zero: an error is not a machine integer either
	}
	got, oc, reason := ccf.invoke(args)
	wi, fits := want.(*expr.Integer)
	fits = fits && wi.IsMachine()
	switch {
	case fits && oc != outServed:
		t.Errorf("%s: interpreter gives %s, compiled code threw (%s)", label, expr.InputForm(want), reason)
	case fits && !expr.SameQ(got, want):
		t.Errorf("%s: compiled %s, interpreted %s", label, expr.InputForm(got), expr.InputForm(want))
	case !fits && oc == outServed:
		t.Errorf("%s: interpreter gives %s, compiled code served %s", label, expr.InputForm(want), expr.InputForm(got))
	}
}

func TestVariantsIntegerArithmetic(t *testing.T) {
	pairs := func(xs, ys []string) [][2]string {
		var out [][2]string
		for _, x := range xs {
			for _, y := range ys {
				out = append(out, [2]string{x, y})
			}
		}
		return out
	}
	ordinary := [][2]string{{"7", "3"}, {"-7", "3"}, {"7", "-3"}, {"0", "5"}}
	divisors := []string{"1", "-1", "2", "-2", "4611686018427387904", "3", "0"}
	dividends := []string{"7", "-7", "-8", "0", "-1", minInt, maxInt}
	ops := []struct {
		head  string
		cases [][2]string
	}{
		{"Plus", append([][2]string{{maxInt, "1"}, {maxInt, "-1"}, {minInt, "-1"}, {"-1", minInt}}, ordinary...)},
		{"Subtract", append([][2]string{{minInt, "1"}, {minInt, "-1"}, {maxInt, "-1"}, {"0", minInt}, {"-1", minInt}}, ordinary...)},
		{"Times", append([][2]string{{minInt, "-1"}, {"-1", minInt}, {"3037000500", "3037000500"},
			{"3037000499", "3037000499"}, {"-3037000500", "3037000500"}, {minInt, "1"}, {maxInt, "2"}, {"4294967296", "2147483648"}}, ordinary...)},
		{"BitAnd", append([][2]string{{minInt, "-1"}, {maxInt, "255"}}, ordinary...)},
		{"BitOr", append([][2]string{{minInt, "1"}}, ordinary...)},
		{"BitXor", append([][2]string{{minInt, maxInt}}, ordinary...)},
		{"Mod", pairs(dividends, divisors)},
		{"Quotient", pairs(dividends, divisors)},
	}
	for _, op := range ops {
		for _, form := range []string{"%s[%s, %s]", "Plus[%s[%s, %s], z]"} { // the root of a tree, and inside one
			for _, c := range op.cases {
				xv, yv := c[0], c[1]
				args := intArgs(t, xv, yv)
				forEachShapePair(t, intParams, xv, yv, "BitOr[%s, %s]",
					func(x, y string) string { return fmt.Sprintf(form, op.head, x, y) },
					func(label string, ccf *CompiledCodeFunction) { checkAgainstInterpreter(t, label, ccf, args) })
			}
		}
	}
}

// compareForms are the two ways a compare is consumed: through its
// evaluator (the If's edges carry phi moves), and as the whole terminator of
// its block (neither successor has a phi).
var compareForms = []string{
	"If[%s[%s, %s], 1, 0]",
	"If[%s[%s, %s], If[z == 0, 1, 2], If[z == 0, 3, 4]]",
}

var compareHeads = []string{"Less", "LessEqual", "Greater", "GreaterEqual", "Equal", "Unequal"}

func TestVariantsIntegerCompares(t *testing.T) {
	cases := [][2]string{{"3", "7"}, {"7", "3"}, {"5", "5"}, {"-5", "5"}, {minInt, maxInt}, {maxInt, minInt},
		{"9007199254740993", "9007199254740992"}, {maxInt, "9223372036854775806"}}
	for _, head := range compareHeads {
		for _, form := range compareForms {
			for _, c := range cases {
				xv, yv := c[0], c[1]
				args := intArgs(t, xv, yv)
				forEachShapePair(t, intParams, xv, yv, "BitOr[%s, %s]",
					func(x, y string) string { return fmt.Sprintf(form, head, x, y) },
					func(label string, ccf *CompiledCodeFunction) { checkAgainstInterpreter(t, label, ccf, args) })
			}
		}
	}
}

const realParams = `Typed[a, "Real64"], Typed[a2, "Real64"], Typed[b, "Real64"], Typed[b2, "Real64"], Typed[z, "MachineInteger"]`

func TestVariantsRealArithmetic(t *testing.T) {
	cases := [][2]string{{"1.5", "0.25"}, {"-2.5", "4."}, {"0.", "3."}, {"1.*^300", "1.*^-300"}, {"-7.75", "-0.5"}}
	for _, head := range []string{"Plus", "Subtract", "Times", "Divide"} {
		for _, form := range []string{"%s[%s, %s]", "Plus[%s[%s, %s], 0.5]"} {
			for _, c := range cases {
				xv, yv := c[0], c[1]
				args := []expr.Expr{parser.MustParse(xv), parser.MustParse(xv), parser.MustParse(yv), parser.MustParse(yv), expr.FromInt64(0)}
				forEachShapePair(t, realParams, xv, yv, "Max[%s, %s]",
					func(x, y string) string { return fmt.Sprintf(form, head, x, y) },
					func(label string, ccf *CompiledCodeFunction) {
						want, err := ccf.compiler.Kernel.EvalGuarded(expr.New(ccf.Source, args...))
						if err != nil {
							t.Fatalf("%s: interpreter: %v", label, err)
						}
						got, oc, reason := ccf.invoke(args)
						if oc != outServed {
							t.Fatalf("%s: compiled code threw (%s)", label, reason)
						}
						w, ok1 := want.(*expr.Real)
						g, ok2 := got.(*expr.Real)
						if !ok1 || !ok2 || w.V != g.V {
							t.Errorf("%s: compiled %s, interpreted %s", label, expr.InputForm(got), expr.InputForm(want))
						}
					})
			}
		}
	}
}

func TestVariantsRealCompares(t *testing.T) {
	goCompare := map[string]func(a, b float64) bool{
		"Less": func(a, b float64) bool { return a < b }, "LessEqual": func(a, b float64) bool { return a <= b },
		"Greater": func(a, b float64) bool { return a > b }, "GreaterEqual": func(a, b float64) bool { return a >= b },
		"Equal": func(a, b float64) bool { return a == b }, "Unequal": func(a, b float64) bool { return a != b },
	}
	cases := [][2]string{{"1.5", "2.5"}, {"2.5", "1.5"}, {"-0.5", "-0.5"}, {"0.", "-0."}}
	for _, head := range compareHeads {
		for fi, form := range compareForms {
			for _, c := range cases {
				xv, yv := c[0], c[1]
				args := []expr.Expr{parser.MustParse(xv), parser.MustParse(xv), parser.MustParse(yv), parser.MustParse(yv), expr.FromInt64(0)}
				forEachShapePair(t, realParams, xv, yv, "Max[%s, %s]",
					func(x, y string) string { return fmt.Sprintf(form, head, x, y) },
					func(label string, ccf *CompiledCodeFunction) { checkAgainstInterpreter(t, label, ccf, args) })
			}
			// NaN has no interpreter value and no literal: the reference is
			// IEEE 754 as Go spells it, every compare false but !=.
			nan := math.NaN()
			for _, in := range [][2]float64{{nan, 1}, {1, nan}, {nan, nan}} {
				x, y := in[0], in[1]
				lit := func(v float64) string {
					if v == 1 {
						return "1."
					}
					return ""
				}
				forEachShapePair(t, realParams, lit(x), lit(y), "Max[%s, %s]",
					func(xs, ys string) string { return fmt.Sprintf(form, head, xs, ys) },
					func(label string, ccf *CompiledCodeFunction) {
						want := int64(0)
						if goCompare[head](x, y) {
							want = 1
						}
						if fi == 1 {
							want = 3 - 2*want
						}
						if got := ccf.CallRaw(x, x, y, y, int64(0)); got != want {
							t.Errorf("%s at (%v, %v): compiled %v, IEEE says %d", label, x, y, got, want)
						}
					})
			}
		}
	}
}

func TestVariantsStringByte(t *testing.T) {
	const s = "abc"
	for _, idx := range []int64{0, 1, 3, 4, -1} { // 0, n and n+1 are the edges
		shapes := []string{"i", fmt.Sprint(idx), "BitOr[i, i2]"}
		for _, shape := range shapes {
			for _, form := range []string{"Native`StringByte[s, %s]", "BitXor[Native`StringByte[s, %s], z]"} {
				src := fmt.Sprintf(`Function[{Typed[s, "String"], Typed[i, "MachineInteger"], Typed[i2, "MachineInteger"], Typed[z, "MachineInteger"]}, %s]`,
					fmt.Sprintf(form, shape))
				for name, cfg := range variantConfigs() {
					c := newCompiler()
					cfg(c)
					ccf, err := c.FunctionCompile(parser.MustParse(src))
					if err != nil {
						t.Fatalf("%s: %v", src, err)
					}
					got, oc, _ := ccf.invoke([]expr.Expr{expr.FromString(s), expr.FromInt64(idx), expr.FromInt64(idx), expr.FromInt64(0)})
					inRange := idx >= 1 && idx <= int64(len(s))
					switch {
					case inRange && (oc != outServed || !expr.SameQ(got, expr.FromInt64(int64(s[idx-1])))):
						t.Errorf("%s: %s at %d: outcome %v, result %v", name, src, idx, oc, got)
					case !inRange && oc != outSoftFailure:
						t.Errorf("%s: %s at %d: outcome %v, want a Part range soft failure", name, src, idx, oc)
					}
				}
			}
		}
	}
}

// The two integer edges on which the constant folder used to disagree with
// the runtime: both operands literal, so the fold decides.
func TestFoldedIntegerEdgesMatchInterpreter(t *testing.T) {
	for _, src := range []string{
		`Function[{Typed[x, "MachineInteger"]}, x + ` + minInt + `*(-1)]`,
		`Function[{Typed[x, "MachineInteger"]}, If[9007199254740993 == 9007199254740992, 1, 0] + x]`,
		`Function[{Typed[x, "MachineInteger"]}, If[9007199254740993 > 9007199254740992, 1, 0] + x]`,
	} {
		for name, cfg := range variantConfigs() {
			c := newCompiler()
			cfg(c)
			ccf, err := c.FunctionCompile(parser.MustParse(src))
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			checkAgainstInterpreter(t, name+": "+src, ccf, []expr.Expr{expr.FromInt64(0)})
		}
	}
}
