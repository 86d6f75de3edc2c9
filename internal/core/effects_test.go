package core

import (
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
)

// TestEffectsHappenAsInterpreted: a compiled call performs the effects the
// interpreter's evaluation of the same Function performs. After the same
// setup both must give the same value and leave the same state behind: the
// next random draw, or a variable the call's kernel escape writes. The
// compiled call must not fall back to the interpreter on the way. Each row
// runs at O0 and O2, so a macro rewrite (which runs at every level) that
// drops an operand with an effect fails at both.
func TestEffectsHappenAsInterpreted(t *testing.T) {
	rows := []struct{ name, src, args, after string }{
		{"And before False", `Function[{Typed[n, "Integer64"]}, Module[{b = And[RandomInteger[{1, 1000}] > n, False]}, RandomInteger[{1, 1000}]]]`,
			"5", "RandomInteger[{1, 1000}]"},
		{"Or before True", `Function[{Typed[n, "Integer64"]}, If[Or[RandomInteger[{1, 1000}] > n, True], RandomInteger[{1, 1000}], 0]]`,
			"5", "RandomInteger[{1, 1000}]"},
		{"KernelFunction", `Function[{}, KernelFunction[(g = g + 1) &][]]`, "", "g"},
	}
	levels := map[string]passes.Options{
		"O0": {AbortHandling: true, InlinePolicy: "none", OptimizationLevel: 0},
		"O2": passes.DefaultOptions(),
	}
	const setup = "SeedRandom[7]; g = 0"
	for _, r := range rows {
		var args []expr.Expr
		if r.args != "" {
			args = append(args, parser.MustParse(r.args))
		}
		for level, opts := range levels {
			c := newCompiler()
			c.Options = opts
			run := func(src string) string {
				out, err := c.Kernel.Run(parser.MustParse(src))
				if err != nil {
					t.Fatalf("%s: %s: %v", r.name, src, err)
				}
				return expr.InputForm(out)
			}
			run(setup)
			want := run(r.src + "[" + r.args + "]")
			wantAfter := run(r.after)
			ccf := compile(t, c, r.src)
			run(setup)
			var msgs strings.Builder
			c.Kernel.Out = &msgs
			out, err := ccf.Apply(args)
			if err != nil || msgs.Len() != 0 {
				t.Fatalf("%s at %s: %v %s", r.name, level, err, msgs.String())
			}
			if got, after := expr.InputForm(out), run(r.after); got != want || after != wantAfter {
				t.Errorf("%s at %s: compiled %s, then %s = %s; interpreted %s, then %s", r.name, level, got, r.after, after, want, wantAfter)
			}
		}
	}
}
