package core

import (
	"strings"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
)

// A call of compiled code is a node of the expression tree it is an operand
// of, so a tree can hold several calls whose callees print. They must print
// in the order the interpreter evaluates the expression, fused or not, and
// an argument that throws half-way through the tree must leave exactly the
// lines printed before it and fall back the same way in both.
func TestCallNodesKeepTheOrderOfEffects(t *testing.T) {
	const src = `Function[{Typed[n, "MachineInteger"]},
		Module[{pr = Function[{Typed[k, "MachineInteger"]}, KernelFunction[Print][k]; k]},
			pr[n] + 10*pr[n + 1] - pr[Quotient[100, n - 3]] + pr[n + 2]]]`
	compiled := func(fuse int, n int64) (string, string) {
		var log strings.Builder
		c := newCompiler()
		c.Kernel.Out = &log
		c.Options.InlinePolicy = "none" // pr stays a function of its own
		c.FuseLevel = fuse
		ccf := compile(t, c, src)
		regions, err := ccf.ExportString("Regions")
		if err != nil {
			t.Fatal(err)
		}
		return printedThen(&log)(ccf.Apply([]expr.Expr{expr.FromInt64(n)})), regions
	}
	// The interpreter runs the same function with the escape taken as the call
	// it names.
	interpreted := func(n int64) string {
		var log strings.Builder
		c := newCompiler()
		c.Kernel.Out = &log
		fn := parser.MustParse(strings.ReplaceAll(src, "KernelFunction[Print]", "Print"))
		return printedThen(&log)(c.Kernel.Run(expr.New(fn, expr.FromInt64(n))))
	}

	fused, regions := compiled(codegen.FuseFull, 1)
	if got := strings.Count(regions, ", call %"); got != 4 {
		t.Errorf("%d of the four calls are nodes of the tree:\n%s", got, regions)
	}
	off, _ := compiled(codegen.FuseOff, 1)
	if want := interpreted(1); fused != want || off != want {
		t.Errorf("pr[1] + 10*pr[2] - pr[-50] + pr[3]:\nfused:\n%s\nunfused:\n%s\ninterpreter:\n%s", fused, off, want)
	}

	// At n = 3 the third call's argument divides by zero: two lines, then the
	// fallback.
	fused, _ = compiled(codegen.FuseFull, 3)
	off, _ = compiled(codegen.FuseOff, 3)
	before, _, fellBack := strings.Cut(fused, "CompiledCodeFunction::cfse")
	if fused != off || !fellBack || before != "3\n4\n" {
		t.Errorf("a throw in the third call's argument:\nfused:\n%s\nunfused:\n%s", fused, off)
	}
	if want := interpreted(3); !strings.HasPrefix(want, before) {
		t.Errorf("compiled code printed %q before it fell back, the interpreter:\n%s", before, want)
	}
}

// printedThen renders an evaluation: what it printed to log, then its result
// or its error.
func printedThen(log *strings.Builder) func(expr.Expr, error) string {
	return func(out expr.Expr, err error) string {
		if err != nil {
			return log.String() + "error: " + err.Error()
		}
		return log.String() + "=> " + expr.InputForm(out)
	}
}
