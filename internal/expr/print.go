package expr

import (
	"fmt"
	"strings"
)

// Operator precedence levels for InputForm printing, mirroring the surface
// grammar in internal/parser. Higher binds tighter.
const (
	precLowest    = 0
	precCompound  = 10  // ;
	precSet       = 20  // = :=
	precFunction  = 25  // &
	precRule      = 35  // -> :>
	precCond      = 38  // /;
	precReplace   = 30  // /.
	precOr        = 40  // ||
	precAnd       = 50  // &&
	precNot       = 55  // !
	precCompare   = 60  // == != < <= > >= ===
	precSpan      = 65  // ;;
	precPlus      = 70  // + -
	precTimes     = 80  // * /
	precStrJoin   = 85  // <>
	precUnary     = 90  // unary -
	precPower     = 100 // ^
	precMapApply  = 110 // /@ @
	precPostfix   = 120 // [..] [[..]] ++ --
	precAtomLevel = 200
)

var infixOps = map[string]struct {
	op    string
	prec  int
	right bool // right-associative
	nary  bool // flat n-ary chain
}{
	"CompoundExpression": {";", precCompound, false, true},
	"Set":                {" = ", precSet, true, false},
	"SetDelayed":         {" := ", precSet, true, false},
	"Rule":               {" -> ", precRule, true, false},
	"RuleDelayed":        {" :> ", precRule, true, false},
	"ReplaceAll":         {" /. ", precReplace, false, false},
	"Condition":          {" /; ", precCond, false, false},
	"Or":                 {" || ", precOr, false, true},
	"And":                {" && ", precAnd, false, true},
	"Equal":              {" == ", precCompare, false, true},
	"Unequal":            {" != ", precCompare, false, true},
	"SameQ":              {" === ", precCompare, false, true},
	"UnsameQ":            {" =!= ", precCompare, false, true},
	"Less":               {" < ", precCompare, false, true},
	"LessEqual":          {" <= ", precCompare, false, true},
	"Greater":            {" > ", precCompare, false, true},
	"GreaterEqual":       {" >= ", precCompare, false, true},
	"Plus":               {" + ", precPlus, false, true},
	"Subtract":           {" - ", precPlus, false, false},
	"Times":              {"*", precTimes, false, true},
	"Divide":             {"/", precTimes, false, false},
	"Power":              {"^", precPower, true, false},
	"StringJoin":         {" <> ", precStrJoin, false, true},
	"Span":               {" ;; ", precSpan, false, false},
	"Map":                {" /@ ", precMapApply, true, false},
}

// InputForm renders e using the operator syntax understood by the parser.
func InputForm(e Expr) string {
	var b strings.Builder
	writeInput(&b, e, precLowest)
	return b.String()
}

func writeInput(b *strings.Builder, e Expr, outer int) {
	n, ok := e.(*Normal)
	if !ok {
		writeAtom(b, e, outer)
		return
	}
	hs, headIsSym := n.head.(*Symbol)
	if headIsSym {
		switch {
		case hs == SymList:
			b.WriteByte('{')
			for i, a := range n.args {
				if i > 0 {
					b.WriteString(", ")
				}
				writeInput(b, a, precLowest)
			}
			b.WriteByte('}')
			return
		case hs.Name == "Slot" && len(n.args) == 1:
			if k, ok := n.args[0].(*Integer); ok && k.IsMachine() {
				if k.Int64() == 1 {
					b.WriteByte('#')
				} else {
					fmt.Fprintf(b, "#%d", k.Int64())
				}
				return
			}
		case hs.Name == "Function" && len(n.args) == 1:
			paren := outer > precFunction
			if paren {
				b.WriteByte('(')
			}
			writeInput(b, n.args[0], precFunction)
			b.WriteString(" &")
			if paren {
				b.WriteByte(')')
			}
			return
		case hs.Name == "Not" && len(n.args) == 1:
			paren := outer > precNot
			if paren {
				b.WriteByte('(')
			}
			b.WriteByte('!')
			writeInput(b, n.args[0], precNot)
			if paren {
				b.WriteByte(')')
			}
			return
		case hs.Name == "Minus" && len(n.args) == 1:
			paren := outer > precUnary
			if paren {
				b.WriteByte('(')
			}
			// An operand that prints with a sign of its own is parenthesised:
			// "--x" lexes as a decrement.
			var arg strings.Builder
			writeInput(&arg, n.args[0], precUnary)
			if strings.HasPrefix(arg.String(), "-") {
				fmt.Fprintf(b, "-(%s)", arg.String())
			} else {
				b.WriteString("-" + arg.String())
			}
			if paren {
				b.WriteByte(')')
			}
			return
		case hs.Name == "Part" && len(n.args) >= 2:
			writeInput(b, n.args[0], precPostfix)
			b.WriteString("[[")
			for i, a := range n.args[1:] {
				if i > 0 {
					b.WriteString(", ")
				}
				writeInput(b, a, precLowest)
			}
			b.WriteString("]]")
			return
		case blankForm(n) != "":
			b.WriteString(blankForm(n))
			return
		case hs.Name == "Pattern" && len(n.args) == 2:
			// x_h names a blank; any other pattern keeps its head.
			if v, ok := n.args[0].(*Symbol); ok {
				if p, ok := n.args[1].(*Normal); ok && blankForm(p) != "" {
					b.WriteString(v.Name + blankForm(p))
					return
				}
			}
		}
		if spec, ok := infixOps[hs.Name]; ok && len(n.args) >= 2 && (spec.nary || len(n.args) == 2) {
			// Children are rendered at spec.prec+1, which parenthesises
			// same-precedence nesting; slightly conservative but always
			// round-trips through the parser.
			paren := outer >= spec.prec
			if paren {
				b.WriteByte('(')
			}
			for i, a := range n.args {
				prec := spec.prec + 1
				if i > 0 {
					b.WriteString(spec.op)
					if _, normal := a.(*Normal); spec.right && !normal {
						prec = spec.prec // a sign here is the operand's: x^-1
					}
				}
				writeInput(b, a, prec)
			}
			if paren {
				b.WriteByte(')')
			}
			return
		}
	}
	// Default: head[args...]
	writeInput(b, n.head, precPostfix)
	b.WriteByte('[')
	for i, a := range n.args {
		if i > 0 {
			b.WriteString(", ")
		}
		writeInput(b, a, precLowest)
	}
	b.WriteByte(']')
}

// blankForm is the short form of a Blank, BlankSequence or BlankNullSequence
// whose head, if it has one, is a symbol — _h, __h, ___h — or "".
func blankForm(n *Normal) string {
	hs, _ := n.head.(*Symbol)
	if hs == nil || len(n.args) > 1 {
		return ""
	}
	under := map[string]string{"Blank": "_", "BlankSequence": "__", "BlankNullSequence": "___"}[hs.Name]
	if len(n.args) == 0 || under == "" {
		return under
	}
	if h, ok := n.args[0].(*Symbol); ok {
		return under + h.String()
	}
	return ""
}

// writeAtom writes an atom; a negative number is parenthesised where what
// follows would bind tighter than its sign: (-1)^2, (-10)[0].
func writeAtom(b *strings.Builder, e Expr, outer int) {
	s := e.String()
	if outer > precPower && strings.HasPrefix(s, "-") {
		s = "(" + s + ")"
	}
	b.WriteString(s)
}

// FullForm renders e with no operator syntax: every Normal expression prints
// as Head[args...]; the form round-trips exactly through the parser.
func FullForm(e Expr) string {
	var b strings.Builder
	writeFull(&b, e)
	return b.String()
}

func writeFull(b *strings.Builder, e Expr) {
	n, ok := e.(*Normal)
	if !ok {
		switch x := e.(type) {
		case *Rational:
			fmt.Fprintf(b, "Rational[%s, %s]", x.V.Num().String(), x.V.Denom().String())
		default:
			b.WriteString(e.String())
		}
		return
	}
	writeFull(b, n.head)
	b.WriteByte('[')
	for i, a := range n.args {
		if i > 0 {
			b.WriteString(", ")
		}
		writeFull(b, a)
	}
	b.WriteByte(']')
}

// String renders a Normal expression in InputForm.
func (n *Normal) String() string { return InputForm(n) }
