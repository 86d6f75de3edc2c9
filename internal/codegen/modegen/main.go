// Command modegen writes internal/codegen/fusion_modes.go: for every hot
// binary scalar op of the closure backend, one closure body per pair of
// operand addressing modes (register, literal, subtree), so the mode is
// decided when the closure is built and a register or literal operand is
// read in the closure body itself. Go generics cannot express this: an
// operator passed as a type parameter becomes a dictionary call that never
// inlines.
//
// The table below is the one place each of these ops is spelled. Run it with
// `go generate ./internal/codegen`; TestGeneratedFileIsFresh compares its
// output with the checked-in file.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// An op is one table row. expr is the Go expression over the two operands,
// %[1]s and %[2]s. An op with no native is a cheaper body the backend selects
// when the second operand is a literal (see literalModulus in fusion.go); it
// is generated for that mode only.
type op struct {
	name, native string
	class        *class
	expr         string
}

// A class fixes operand and result kinds, and with them which forms an op
// gets: arithmetic is built as an evaluator (interior node) and as an
// assignment root, a compare as an evaluator and as a conditional branch.
type class struct {
	table    string // generated map from native name to constructors
	operand  string // operand descriptor type
	file     string // frame register file of the operands (and, for arithmetic, the result)
	eval     string // evaluator type
	result   string // its Go result type
	compares bool
}

var (
	intArith    = &class{table: "intArith", operand: "opI", file: "i", eval: "evalI", result: "int64"}
	realArith   = &class{table: "realArith", operand: "opF", file: "f", eval: "evalF", result: "float64"}
	intCompare  = &class{table: "intCompare", operand: "opI", file: "i", eval: "evalB", result: "bool", compares: true}
	realCompare = &class{table: "realCompare", operand: "opF", file: "f", eval: "evalB", result: "bool", compares: true}
)

// constructors is the type (declared in fusion.go) that holds an op's forms,
// and the name of the form it has beside Eval.
func (c *class) constructors() (typ, root string) {
	if c.compares {
		return fmt.Sprintf("compare[%s]", c.operand), "Branch"
	}
	return fmt.Sprintf("arith[%s, %s]", c.operand, c.eval), "Assign"
}

var ops = []op{
	{"addI", "binary_plus", intArith, "runtime.AddI64(%[1]s, %[2]s)"},
	{"subI", "binary_subtract", intArith, "runtime.SubI64(%[1]s, %[2]s)"},
	{"mulI", "binary_times", intArith, "runtime.MulI64(%[1]s, %[2]s)"},
	{"andI", "bitand", intArith, "%[1]s & %[2]s"},
	{"orI", "bitor", intArith, "%[1]s | %[2]s"},
	{"xorI", "bitxor", intArith, "%[1]s ^ %[2]s"},
	{"modI", "mod_int", intArith, "runtime.ModI64(%[1]s, %[2]s)"},
	{"quotI", "quotient_int", intArith, "runtime.QuotI64(%[1]s, %[2]s)"},
	{"modLitI", "", intArith, "runtime.ModNZ(%[1]s, %[2]s)"},
	{"quotLitI", "", intArith, "runtime.QuotNZ(%[1]s, %[2]s)"},
	{"shrLitI", "", intArith, "%[1]s >> uint64(%[2]s)"},

	{"addF", "binary_plus", realArith, "%[1]s + %[2]s"},
	{"subF", "binary_subtract", realArith, "%[1]s - %[2]s"},
	{"mulF", "binary_times", realArith, "%[1]s * %[2]s"},
	{"divF", "binary_divide", realArith, "%[1]s / %[2]s"},

	{"lessI", "cmp_less", intCompare, "%[1]s < %[2]s"},
	{"lessEqualI", "cmp_lessequal", intCompare, "%[1]s <= %[2]s"},
	{"greaterI", "cmp_greater", intCompare, "%[1]s > %[2]s"},
	{"greaterEqualI", "cmp_greaterequal", intCompare, "%[1]s >= %[2]s"},
	{"equalI", "cmp_equal", intCompare, "%[1]s == %[2]s"},
	{"unequalI", "cmp_unequal", intCompare, "%[1]s != %[2]s"},

	{"lessF", "cmp_less", realCompare, "%[1]s < %[2]s"},
	{"lessEqualF", "cmp_lessequal", realCompare, "%[1]s <= %[2]s"},
	{"greaterF", "cmp_greater", realCompare, "%[1]s > %[2]s"},
	{"greaterEqualF", "cmp_greaterequal", realCompare, "%[1]s >= %[2]s"},
	{"equalF", "cmp_equal", realCompare, "%[1]s == %[2]s"},
	{"unequalF", "cmp_unequal", realCompare, "%[1]s != %[2]s"},
}

var modes = []struct{ name, read string }{
	{"opRegMode", "fr.%[2]s[%[1]si]"},
	{"opLitMode", "%[1]sl"},
	{"opEvalMode", "%[1]se(fr)"},
}

// form writes one constructor: a switch over the operand modes whose every
// arm returns the closure wrap builds around the op's expression.
func form(w *bytes.Buffer, o op, suffix, params, ret string, wrap func(e string) string) {
	fmt.Fprintf(w, "func %s%s(%s) %s {\n", o.name, suffix, params, ret)
	ymodes := modes
	if o.native == "" {
		ymodes = modes[1:2]
		fmt.Fprintf(w, "xi, xl, xe, yl := x.idx, x.lit, x.ev, y.lit\nswitch x.mode {\n")
	} else {
		fmt.Fprintf(w, "xi, xl, xe, yi, yl, ye := x.idx, x.lit, x.ev, y.idx, y.lit, y.ev\nswitch x.mode*3 + y.mode {\n")
	}
	for xi, xm := range modes {
		for yi, ym := range ymodes {
			// The last pair is the default arm: every arm returns, so the
			// switch terminates the function.
			switch {
			case xi == len(modes)-1 && yi == len(ymodes)-1:
				w.WriteString("default:\n")
			case len(ymodes) == 1:
				fmt.Fprintf(w, "case %s:\n", xm.name)
			default:
				fmt.Fprintf(w, "case %s*3 + %s:\n", xm.name, ym.name)
			}
			e := fmt.Sprintf(o.expr, fmt.Sprintf(xm.read, "x", o.class.file), fmt.Sprintf(ym.read, "y", o.class.file))
			fmt.Fprintf(w, "return %s\n", wrap(e))
		}
	}
	w.WriteString("}\n}\n\n")
}

func generate() ([]byte, error) {
	var w bytes.Buffer
	w.WriteString("// Code generated by modegen from its op table; DO NOT EDIT.\n\n")
	w.WriteString("package codegen\n\nimport \"wolfc/internal/runtime\"\n\n")
	for _, c := range []*class{intArith, realArith, intCompare, realCompare} {
		typ, _ := c.constructors()
		fmt.Fprintf(&w, "var %s = map[string]%s{\n", c.table, typ)
		for _, o := range ops {
			if o.class == c && o.native != "" {
				fmt.Fprintf(&w, "%q: %s,\n", o.native, o.name)
			}
		}
		w.WriteString("}\n\n")
	}
	for _, o := range ops {
		c := o.class
		operands := "x, y " + c.operand
		typ, root := c.constructors()
		fmt.Fprintf(&w, "var %s = %s{eval: %[1]sEval, %[3]s: %[1]s%[4]s}\n\n", o.name, typ, strings.ToLower(root), root)
		form(&w, o, "Eval", operands, c.eval, func(e string) string {
			return fmt.Sprintf("func(fr *frame) %s { return %s }", c.result, e)
		})
		if !c.compares {
			form(&w, o, "Assign", "d int, "+operands, "step", func(e string) string {
				return fmt.Sprintf("func(fr *frame) { fr.%s[d] = %s }", c.file, e)
			})
			continue
		}
		// A compare that ends a block with no phi moves on either edge: the
		// whole block (abort poll, compare, branch) is this one closure.
		form(&w, o, "Branch", operands+", poll bool, thenIdx, elseIdx int", "term", func(e string) string {
			return fmt.Sprintf(`func(fr *frame) int {
				if poll && fr.rt.Aborted() {
					runtime.Throw(runtime.ExcAbort, "aborted")
				}
				if %s {
					return thenIdx
				}
				return elseIdx
			}`, e)
		})
	}
	return format.Source(w.Bytes())
}

func main() {
	out := flag.String("o", "fusion_modes.go", "output file")
	flag.Parse()
	src, err := generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, src, 0o644); err != nil {
		log.Fatal(err)
	}
}
