package core

import (
	"io"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// A compiled function's tensor result boxes to what the interpreter prints
// for the same call, at either rank and every element kind: a Boolean or
// String matrix has every element, and a complex element with a zero
// imaginary part is the real, as Box gives for a complex scalar.
func TestTensorResultsBoxAsTheInterpreter(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	c := NewCompiler(k)
	z := `Typed[z, "ComplexReal64"], `
	for _, r := range []struct{ src, args string }{
		{`Function[{Typed[n, "MachineInteger"]}, ConstantArray[True, {n, n}]]`, `{2}`},
		{`Function[{Typed[n, "MachineInteger"]}, ConstantArray["x", {n, n + 1}]]`, `{2}`},
		{`Function[{` + z + `Typed[n, "MachineInteger"]}, ConstantArray[z*z, n]]`, `{Complex[0., 1.], 3}`},
		{`Function[{` + z + `Typed[n, "MachineInteger"]}, {z*z, z, z*z*z*z}]`, `{Complex[0., 1.], 3}`},
		{`Function[{` + z + `Typed[n, "MachineInteger"]}, ConstantArray[z*z, {n, n}]]`, `{Complex[0., 1.], 2}`},
		{`Function[{` + z + `Typed[n, "MachineInteger"]}, {{z*z, z}, {z, z*z}}]`, `{Complex[0., 1.], 2}`},
	} {
		fn := parser.MustParse(r.src)
		args := parser.MustParse(r.args).(*expr.Normal).Args()
		ccf, err := c.FunctionCompile(fn)
		if err != nil {
			t.Fatalf("%s: %v", r.src, err)
		}
		got, err := ccf.Apply(args)
		if err != nil {
			t.Fatalf("%s: %v", r.src, err)
		}
		want, err := k.Run(expr.New(fn, args...))
		if err != nil {
			t.Fatalf("%s interpreted: %v", r.src, err)
		}
		if expr.InputForm(got) != expr.InputForm(want) {
			t.Errorf("%s%s = %s, interpreter %s", r.src, r.args, expr.InputForm(got), expr.InputForm(want))
		}
	}
}
