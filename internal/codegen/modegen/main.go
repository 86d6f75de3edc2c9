// Command modegen writes internal/codegen/fusion_modes.go: for every hot
// binary scalar op of the closure backend, one closure body per pair of
// operand addressing modes (register, literal, subtree), so the mode is
// decided when the closure is built and a register or literal operand is
// read in the closure body itself. Go generics cannot express this: an
// operator passed as a type parameter becomes a dictionary call that never
// inlines.
//
// Each row names its op's function in the runtime's scalar table
// (runtime.ScalarOf), the one place the op is spelled, and the generated body
// calls it; the function inlines there. Run it with
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
	"reflect"
	goruntime "runtime"
	"strings"

	"wolfc/internal/runtime"
)

// An op is one table row: its native's function at the class's kinds. An op
// with no native is a cheaper body the backend selects when the second
// operand is a literal (see literalModulus in fusion.go); it names its
// function itself and is generated for that mode only.
type op struct {
	name, native string
	class        *class
	fn           string
}

// A class fixes operand and result kinds, and with them which forms an op
// gets: arithmetic is built as an evaluator (interior node) and as an
// assignment root, a compare as an evaluator alone (the If or loop closure
// that branches on it calls that).
type class struct {
	table    string // generated map from native name to constructors
	operand  string // operand descriptor type
	file     string // frame register file of the operands (and, for arithmetic, the result)
	eval     string // evaluator type
	result   string // its Go result type
	compares bool
	kind     runtime.Kind // of the operands
	resKind  runtime.Kind // of the result
}

var (
	intArith    = &class{table: "intArith", operand: "opI", file: "i", eval: "evalI", result: "int64", kind: runtime.KI64, resKind: runtime.KI64}
	realArith   = &class{table: "realArith", operand: "opF", file: "f", eval: "evalF", result: "float64", kind: runtime.KR64, resKind: runtime.KR64}
	intCompare  = &class{table: "intCompare", operand: "opI", file: "i", eval: "evalB", result: "bool", compares: true, kind: runtime.KI64, resKind: runtime.KBool}
	realCompare = &class{table: "realCompare", operand: "opF", file: "f", eval: "evalB", result: "bool", compares: true, kind: runtime.KR64, resKind: runtime.KBool}
)

// constructors is the type (declared in fusion.go) that holds an op's forms.
func (c *class) constructors() string {
	if c.compares {
		return fmt.Sprintf("compare[%s]", c.operand)
	}
	return fmt.Sprintf("arith[%s, %s]", c.operand, c.eval)
}

var ops = []op{
	{"addI", "binary_plus", intArith, ""},
	{"subI", "binary_subtract", intArith, ""},
	{"mulI", "binary_times", intArith, ""},
	{"andI", "bitand", intArith, ""},
	{"orI", "bitor", intArith, ""},
	{"xorI", "bitxor", intArith, ""},
	{"modI", "mod_int", intArith, ""},
	{"quotI", "quotient_int", intArith, ""},
	{"modLitI", "", intArith, "runtime.ModNZ"},
	{"quotLitI", "", intArith, "runtime.QuotNZ"},
	{"shrLitI", "", intArith, "runtime.ShrLitI64"},

	{"addF", "binary_plus", realArith, ""},
	{"subF", "binary_subtract", realArith, ""},
	{"mulF", "binary_times", realArith, ""},
	{"divF", "binary_divide", realArith, ""},

	{"lessI", "cmp_less", intCompare, ""},
	{"lessEqualI", "cmp_lessequal", intCompare, ""},
	{"greaterI", "cmp_greater", intCompare, ""},
	{"greaterEqualI", "cmp_greaterequal", intCompare, ""},
	{"equalI", "cmp_equal", intCompare, ""},
	{"unequalI", "cmp_unequal", intCompare, ""},

	{"lessF", "cmp_less", realCompare, ""},
	{"lessEqualF", "cmp_lessequal", realCompare, ""},
	{"greaterF", "cmp_greater", realCompare, ""},
	{"greaterEqualF", "cmp_greaterequal", realCompare, ""},
	{"equalF", "cmp_equal", realCompare, ""},
	{"unequalF", "cmp_unequal", realCompare, ""},
}

// function returns the Go name of o's function: the one its row names, or
// its native's in the runtime's scalar table, which must be a function
// declared at package level there (a closure has no name to call).
func (o op) function() string {
	if o.native == "" {
		return o.fn
	}
	s := runtime.ScalarOf(o.native, o.class.resKind, o.class.kind, o.class.kind)
	if s == nil {
		log.Fatalf("modegen: the runtime has no function for %s at kind %v", o.native, o.class.kind)
	}
	name := goruntime.FuncForPC(reflect.ValueOf(s.Fn).Pointer()).Name()
	name = name[strings.LastIndex(name, "/")+1:]
	if strings.ContainsAny(strings.TrimPrefix(name, "runtime."), ".[") {
		log.Fatalf("modegen: %s's function %s is not a package-level function", o.native, name)
	}
	return name
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
			e := fmt.Sprintf("%s(%s, %s)", o.function(), fmt.Sprintf(xm.read, "x", o.class.file), fmt.Sprintf(ym.read, "y", o.class.file))
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
		fmt.Fprintf(&w, "var %s = map[string]%s{\n", c.table, c.constructors())
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
		form(&w, o, "Eval", operands, c.eval, func(e string) string {
			return fmt.Sprintf("func(fr *frame) %s { return %s }", c.result, e)
		})
		if c.compares {
			fmt.Fprintf(&w, "var %s = %s{eval: %[1]sEval}\n\n", o.name, c.constructors())
			continue
		}
		fmt.Fprintf(&w, "var %s = %s{eval: %[1]sEval, assign: %[1]sAssign}\n\n", o.name, c.constructors())
		form(&w, o, "Assign", "d int, "+operands, "step", func(e string) string {
			return fmt.Sprintf("func(fr *frame) { fr.%s[d] = %s }", c.file, e)
		})
	}
	sum(&w)
	calls(&w)
	return format.Source(w.Bytes())
}

// calls writes the kind-dependent halves of the call node. A pass evaluates
// one or two Integer64 or Real64 arguments, enters the callee and hands them
// over; there is one for each such signature, so no argument's kind is
// switched on, and each is small enough that the operands' get and
// callSite.callee inline into it. passRegs passes any other call's registers.
// The evaluator and assignment forms run the callee and read its result
// before leaving its record; an evaluator of one Integer64 argument, the
// shape of most recursion, is its own pass.
func calls(w *bytes.Buffer) {
	// The register files in the order of runtime.Kind. Argument k of a pass
	// is an Integer64 when bit k of code is clear, a Real64 when it is set.
	kinds := []struct{ file, kind, result string }{
		{"i", "KI64", "int64"}, {"f", "KR64", "float64"}, {"c", "KC64", "complex128"}, {"b", "KBool", "bool"}, {"o", "KObj", ""},
	}
	pass := func(n, code int) (name, body string) {
		var vals, gets, puts []string
		for k := 0; k < n; k++ {
			file := kinds[code>>k&1].file
			name += strings.ToUpper(file)
			vals = append(vals, fmt.Sprintf("a%d", k))
			gets = append(gets, fmt.Sprintf("cs.%s[%d].get(fr)", file, k))
			puts = append(puts, fmt.Sprintf("cfr.%s[p[%d].idx]", file, k))
		}
		return "pass" + name, fmt.Sprintf("%s := %s\nt, caps := cs.callee(fr)\ncfr := fr.rt.enter(t, caps)\np := t.params\n%s = %[1]s\n",
			strings.Join(vals, ", "), strings.Join(gets, ", "), strings.Join(puts, ", "))
	}
	table := "passRegs,\n"
	for n := 1; n <= 2; n++ {
		for code := 0; code < 1<<n; code++ {
			name, body := pass(n, code)
			table += name + ",\n"
			fmt.Fprintf(w, "func %s(cs *callSite, fr *frame) (*CFunc, *frame) {\n%sreturn t, cfr\n}\n\n", name, body)
		}
	}
	fmt.Fprintf(w, "var passBySig = [...]func(cs *callSite, fr *frame) (*CFunc, *frame){\n%s}\n\n", table)
	w.WriteString("func passRegs(cs *callSite, fr *frame) (*CFunc, *frame) {\nt, caps := cs.callee(fr)\ncfr := fr.rt.enter(t, caps)\nfor k, r := range cs.regs {\np := t.params[k].idx\nswitch r.kind {\n")
	assign := "var callAssign = [...]func(cs *callSite, d int) step{\n"
	for _, k := range kinds {
		fmt.Fprintf(w, "case runtime.%s:\ncfr.%s[p] = fr.%[2]s[r.idx]\n", k.kind, k.file)
		assign += fmt.Sprintf("runtime.%s: callAssign%s,\n", k.kind, strings.ToUpper(k.file))
	}
	fmt.Fprintf(w, "}\n}\nreturn t, cfr\n}\n\n%s}\n\n", assign)
	// The forms are kept out of line: a closure that is inlined into its
	// builder is compiled there with leave left a call.
	const enter, leave = "t, cfr := cs.pass(cs, fr)\n", "fr.rt.leave(t, cfr)\n"
	for _, k := range kinds {
		up := strings.ToUpper(k.file)
		if k.result != "" {
			eval := func(head string) string {
				return fmt.Sprintf("return func(fr *frame) %s {\n%st.body(cfr)\nr := cfr.%s[t.retReg.idx]\n%sreturn r\n}\n", k.result, head, k.file, leave)
			}
			_, passI := pass(1, 0)
			fmt.Fprintf(w, "//go:noinline\nfunc callEval%s(cs *callSite) eval%[1]s {\nif cs.sig == 1 {\n%s}\n%s}\n\n", up, eval(passI), eval(enter))
		}
		fmt.Fprintf(w, "//go:noinline\nfunc callAssign%s(cs *callSite, d int) step {\nreturn func(fr *frame) {\n%st.body(cfr)\nfr.%s[d] = cfr.%[3]s[t.retReg.idx]\n%s}\n}\n\n",
			up, enter, k.file, leave)
	}
	fmt.Fprintf(w, "//go:noinline\nfunc callStep(cs *callSite) step {\nreturn func(fr *frame) {\n%st.body(cfr)\n%s}\n}\n", enter, leave)
}

// sum writes the sum node: a left-leaning chain of real + and - over three or
// more terms, each [coef *] leaf, run by one closure that reads its register,
// literal and Part leaves itself. The +, - and * are the table's own, so the
// node is the same spelling of them as the one-op closures it replaces, and
// each is converted to float64 where it is computed: the conversion rounds,
// which keeps a port that has a fused multiply-add from contracting a term's
// product into the accumulation and rounding once where the chain of closures
// rounded twice.
func sum(w *bytes.Buffer) {
	expr := func(name, x, y string) string {
		for _, o := range ops {
			if o.name == name {
				return fmt.Sprintf("float64(%s(%s, %s))", o.function(), x, y)
			}
		}
		log.Fatalf("modegen: the sum node needs op %s", name)
		return ""
	}
	// The Part leaves read as partEvalF does: the positive in-range case
	// indexes the slice, anything else takes the checked accessor, which
	// resolves a negative index or throws. A run of reads of one tensor checks
	// the register that holds it once.
	body := fmt.Sprintf(`var acc float64
		var x *runtime.Tensor
		held := -1
		for k := range ts {
			t := &ts[k]
			var v float64
			switch t.leaf {
			case sumReg:
				v = fr.f[t.a]
			case sumLit:
				v = t.lit
			case sumPart1:
				if t.a != held {
					x, held = tensorArg(fr, t.a), t.a
				}
				if k, ok := runtime.Off1(fr.i[t.i], len(x.F)); ok {
					v = x.F[k]
				} else {
					v = x.GetF(fr.i[t.i])
				}
			case sumPart2:
				if t.a != held {
					x, held = tensorArg(fr, t.a), t.a
				}
				if k, ok := x.Off2(fr.i[t.i], fr.i[t.j]); ok {
					v = x.F[k]
				} else {
					v = x.GetF2(fr.i[t.i], fr.i[t.j])
				}
			default:
				v = t.ev(fr)
			}
			if t.scaled {
				v = %s
			}
			switch {
			case k == 0:
				acc = v
			case t.neg:
				acc = %s
			default:
				acc = %s
			}
		}`, expr("mulF", "t.coef", "v"), expr("subF", "acc", "v"), expr("addF", "acc", "v"))
	// Both are kept out of line: inlined into their builder, the closure
	// would be compiled there without inlining the runtime's functions.
	fmt.Fprintf(w, "//go:noinline\nfunc sumFEval(ts []sumTerm) evalF {\nreturn func(fr *frame) float64 {\n%s\nreturn acc\n}\n}\n\n", body)
	fmt.Fprintf(w, "//go:noinline\nfunc sumFAssign(d int, ts []sumTerm) step {\nreturn func(fr *frame) {\n%s\nfr.f[d] = acc\n}\n}\n", body)
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
