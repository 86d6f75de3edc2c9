package core

import (
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
)

// Negative Part indices (v[[-1]] is the last element) must behave the same
// on the native backend and in the interpreter (TestCrossBackendPartEdges
// holds the C backend to the native one on them).
func TestNegativePartIndexingAcrossBackends(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["MachineInteger", 1]], Typed[k, "MachineInteger"]},
		v[[k]]]`)
	arg := parser.MustParse("{10, 20, 30}")
	for k, want := range map[int64]string{1: "10", 3: "30", -1: "30", -2: "20", -3: "10"} {
		out, err := ccf.Apply([]expr.Expr{arg, expr.FromInt64(k)})
		if err != nil || expr.InputForm(out) != want {
			t.Fatalf("native v[[%d]] = %s (%v), want %s", k, expr.InputForm(out), err, want)
		}
	}
	// Interpreter agreement.
	out, err := c.Kernel.EvalGuarded(parser.MustParse(`{10, 20, 30}[[-2]]`))
	if err != nil || expr.InputForm(out) != "20" {
		t.Fatalf("interpreter [[-2]] = %s (%v)", expr.InputForm(out), err)
	}
}
