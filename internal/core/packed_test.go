package core

import (
	"fmt"
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

// packedKinds are the element types a tensor of tensors packs (types.Packed):
// for each, a draw from the random stream that makes an element of that type,
// and a literal one.
var packedKinds = []struct{ ty, draw, lit string }{
	{"Integer64", "RandomInteger[{1, 100}]", "7"},
	{"Real64", "RandomReal[]", "0.5"},
	{"ComplexReal64", "Complex[RandomReal[], 0.5]", "Complex[1., 2.]"},
	{"Boolean", "RandomReal[] > 0.5", "True"},
}

// packedBuilders are the six list builders over vectors, each drawing while
// it builds: $R is a draw, $B a literal element.
var packedBuilders = []struct{ name, body string }{
	{"NestList", `NestList[{$R, #[[1]]} &, {$B, $B}, n]`},
	{"Table", `Table[{$R, $B}, {i, n}]`},
	{"Map", `Map[Function[{x}, {$R, $B}], Range[n]]`},
	{"FoldList", `FoldList[Function[{acc, x}, {$R, acc[[1]]}], {$B, $B}, Range[n]]`},
	{"MapIndexed", `MapIndexed[Function[{x, i}, {$R, $B}], Range[n]]`},
	{"ConstantArray", `ConstantArray[{$R, $B}, n]`},
}

// TestPackedBuildersEffectsOnce: every list builder over vectors of each
// packed element type returns one packed matrix, and under every pass
// configuration gives the interpreter's value and leaves the random stream
// where the interpreter leaves it: a row store that copies, a list literal
// the sum reads in place, or an accumulator written over in place drops,
// repeats or reorders no draw. Figure 1's walk is the last row.
func TestPackedBuildersEffectsOnce(t *testing.T) {
	type row struct{ name, src, ret string }
	var rows []row
	for _, k := range packedKinds {
		for _, b := range packedBuilders {
			body := strings.NewReplacer("$R", k.draw, "$B", k.lit).Replace(b.body)
			rows = append(rows, row{b.name + "/" + k.ty, `Function[{Typed[n, "Integer64"]}, ` + body + `]`,
				"Tensor[" + k.ty + ", 2]"})
		}
	}
	rows = append(rows, row{"randomwalk", `Function[{Typed[n, "Integer64"]},
		NestList[Module[{arg = RandomReal[{0., 6.283185307179586}]}, {-Cos[arg], Sin[arg]} + #] &, {0., 0.}, n]]`,
		"Tensor[Real64, 2]"})
	const setup, next = "SeedRandom[11]", "RandomReal[]"
	args := []expr.Expr{parser.MustParse("4")}
	for _, r := range rows {
		for variant, opts := range optVariants() {
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
			want := run(r.src + "[4]")
			wantNext := run(next)
			ccf := compile(t, c, r.src)
			if got := ccf.RetType.String(); got != r.ret {
				t.Errorf("%s (%s) returns %s, want the packed %s", r.name, variant, got, r.ret)
			}
			var msgs strings.Builder
			c.Kernel.Out = &msgs
			run(setup)
			out, err := ccf.Apply(args)
			if err != nil || msgs.Len() != 0 {
				t.Fatalf("%s (%s): %v %s", r.name, variant, err, msgs.String())
			}
			if got, gotNext := expr.InputForm(out), run(next); got != want || gotNext != wantNext {
				t.Errorf("%s (%s): compiled %s, then %s = %s; interpreted %s, then %s",
					r.name, variant, got, next, gotNext, want, wantNext)
			}
		}
	}
}

// TestRaggedResultsFallBack: a builder whose rows differ in length has no
// packed array to fill. The row store throws, the call falls back to the
// interpreter (F2), counted, with the paper's warning, and prints the
// interpreter's ragged answer.
func TestRaggedResultsFallBack(t *testing.T) {
	for _, src := range []string{
		`Function[{Typed[n, "Integer64"]}, Table[Range[i], {i, n}]]`,
		`Function[{Typed[n, "Integer64"]}, Map[Range, Range[n]]]`,
		`Function[{}, Map[Range, {1, 2, 3}]]`,
	} {
		c := newCompiler()
		var msgs strings.Builder
		c.Kernel.Out = &msgs
		ccf := compile(t, c, src)
		var args []expr.Expr
		call := src + "[]"
		if strings.Contains(src, "Typed[n") {
			args, call = []expr.Expr{parser.MustParse("4")}, src+"[4]"
		}
		want, err := c.Kernel.Run(parser.MustParse(call))
		if err != nil {
			t.Fatal(err)
		}
		msgs.Reset()
		out, err := ccf.Apply(args)
		if err != nil || !expr.SameQ(out, want) {
			t.Errorf("%s: compiled %v (%v), interpreted %s", src, out, err, expr.InputForm(want))
		}
		if !strings.Contains(msgs.String(), "CompiledCodeFunction::cfse") || !strings.Contains(msgs.String(), "unequal shape") {
			t.Errorf("%s printed %q, want the cfse warning naming the row shapes", src, msgs.String())
		}
		if n := ccf.Metrics.Snapshot().Fallbacks; n != 1 {
			t.Errorf("%s: %d fallbacks counted, want 1", src, n)
		}
	}
}

// TestPackedRowsMatchInterpreter: the natives over the rows of a packed
// array — row reads and stores, fills and cuts of vectors, list literals of
// vectors and of matrices, rank 3 — give the interpreter's answers without
// falling back.
func TestPackedRowsMatchInterpreter(t *testing.T) {
	for _, tc := range []struct{ src, args string }{
		{`Function[{Typed[n, "Integer64"]}, Module[{m = Table[{i, i*i}, {i, n}]}, Map[Total, m]]]`, "4"},
		{`Function[{Typed[n, "Integer64"]}, Module[{m = Table[{1.*i, 2.}, {i, n}]}, m[[2]] + m[[-1]]*2.]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Most[Table[{i > 1, True}, {i, n}]]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Most[Table[{i, 2*i}, {i, n}]]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, ConstantArray[{1., 2.}, {n, 2}]]`, "2"},
		{`Function[{Typed[n, "Integer64"]}, ConstantArray[{True, False}, n]]`, "2"},
		{`Function[{Typed[n, "Integer64"]}, Table[{{i, 1}, {2, i}}, {i, n}]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Module[{m = Table[{{i, 1}, {2, i}}, {i, n}]}, {m[[2]][[1]], m[[3]][[2]]}]]`, "3"},
		{`Function[{Typed[x, "Real64"]}, {{x, 1.}, {2., x}}]`, "0.5"},
		{`Function[{Typed[x, "Real64"]}, Module[{v = {x, 2.*x}}, {{v, v}, {v, v}}]]`, "0.5"},
		{`Function[{Typed[n, "Integer64"]}, FoldList[Function[{acc, x}, acc + {x, 1}], {0, 0}, Range[n]]]`, "4"},
		{`Function[{Typed[n, "Integer64"]}, Fold[Function[{acc, row}, acc + row], {0., 0.}, Table[{1.*i, 1.}, {i, n}]]]`, "4"},
		{`Function[{Typed[n, "Integer64"]}, Reverse[Table[{Complex[1., 1.]*i, 0.}, {i, n}]]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Table[{i, 2*i}, {i, n}][[2 ;; 3]]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Join[Table[{i, 2*i}, {i, n}], {{0, 0}}]]`, "2"},
		{`Function[{Typed[n, "Integer64"]}, Table[{}, {i, 0}]]`, "0"},
		{`Function[{Typed[n, "Integer64"]}, Partition[Table[{i, 2*i}, {i, n}], 2]]`, "5"},
		{`Function[{Typed[n, "Integer64"]}, Partition[Table[{i > 2, True}, {i, n}], 2]]`, "4"},
		{`Function[{Typed[n, "Integer64"]}, Select[Table[{i, 2*i}, {i, n}], Function[r, First[r] > n]]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Select[Table[{i, 2*i}, {i, n}], Function[r, First[r] > 1]]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Select[Table[{1.*i, 0.}, {i, n}], Function[r, First[r] > 10.]]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Select[Table[{{i, 1}, {2, i}}, {i, n}], Function[r, First[First[r]] == 2]]]`, "3"},
		{`Function[{Typed[n, "Integer64"]}, Select[Table[{{i, 1}, {2, i}}, {i, n}], Function[r, First[First[r]] == 0]]]`, "3"},
	} {
		c := newCompiler()
		var msgs strings.Builder
		c.Kernel.Out = &msgs
		ccf, err := c.FunctionCompileRequest(parser.MustParse(tc.src), CompileRequest{VerifyEach: true})
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		if rt, ok := ccf.RetType.(*types.Compound); ok && rt.Ctor == "Tensor" && types.IsTensor(rt.Args[0]) {
			t.Errorf("%s returns the unpacked %s", tc.src, rt)
		}
		want, err := c.Kernel.Run(parser.MustParse(tc.src + "[" + tc.args + "]"))
		if err != nil {
			t.Fatal(err)
		}
		msgs.Reset()
		out, err := ccf.Apply([]expr.Expr{parser.MustParse(tc.args)})
		if err != nil || msgs.Len() != 0 || !expr.SameQ(out, want) {
			t.Errorf("%s[%s]: compiled %v (%v) %s; interpreted %s", tc.src, tc.args, out, err, msgs.String(), expr.InputForm(want))
		}
	}
}

// TestUnboxPackedArguments: a parameter declared a tensor of vectors is one
// packed array: a rectangular argument unboxes, a ragged one falls back.
func TestUnboxPackedArguments(t *testing.T) {
	c := newCompiler()
	var msgs strings.Builder
	c.Kernel.Out = &msgs
	ccf := compile(t, c, `Function[{Typed[m, "Tensor"["Tensor"["Integer64", 1], 1]]}, Map[Total, m]]`)
	if got := fmt.Sprint(ccf.ParamTypes[0]); got != "Tensor[Integer64, 2]" {
		t.Errorf("the parameter is %s, want Tensor[Integer64, 2]", got)
	}
	if got := apply(t, ccf, "{{1, 2}, {3, 4}, {5, 6}}"); got != "{3, 7, 11}" || msgs.Len() != 0 {
		t.Errorf("rectangular argument: %s %s", got, msgs.String())
	}
	if got := apply(t, ccf, "{{1, 2}, {3}}"); got != "{3, 3}" || !strings.Contains(msgs.String(), "does not match type") {
		t.Errorf("ragged argument: %s %s", got, msgs.String())
	}
}
