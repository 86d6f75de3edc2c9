package parser

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"wolfc/internal/diag"
	"wolfc/internal/expr"
)

// Parse parses src as a single expression; trailing input is an error.
func Parse(src string) (expr.Expr, error) {
	return parseOne("", src, nil)
}

// ParseSource is Parse for a named source unit. It additionally returns the
// diag.Source holding the span table that maps every parsed non-atomic node
// (and fresh numeric/string atoms) back to its byte range in src, so
// downstream stages can report "type error ... at line:col". Errors are
// positioned *diag.Diagnostics.
func ParseSource(name, src string) (expr.Expr, *diag.Source, error) {
	tab := diag.NewSource(name, src)
	e, err := parseOne(name, src, tab)
	if err != nil {
		return nil, nil, err
	}
	return e, tab, nil
}

// parseOne parses one expression, recording spans in tab when it is not
// nil.
func parseOne(name, src string, tab *diag.Source) (expr.Expr, error) {
	var p parser
	if err := p.init(name, src, tab); err != nil {
		return nil, err
	}
	p.skipNewlines()
	e, err := p.parseExpr(0)
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if t := p.peek(); t.kind != tokEOF {
		return nil, p.errAt(t, "unexpected %q after expression", p.text(t))
	}
	return e, nil
}

// MustParse is Parse but panics on error; for tests and static program text.
func MustParse(src string) expr.Expr {
	e, err := Parse(src)
	if err != nil {
		panic(fmt.Sprintf("parser.MustParse(%q): %v", src, err))
	}
	return e
}

// ParseAll parses a newline-separated sequence of top-level expressions. It
// keeps no span table: a query's positions are those of its parse errors.
func ParseAll(src string) ([]expr.Expr, error) {
	return parseAll("", src, nil)
}

// ParseAllSource is ParseAll with a named source unit and span table.
func ParseAllSource(name, src string) ([]expr.Expr, *diag.Source, error) {
	tab := diag.NewSource(name, src)
	out, err := parseAll(name, src, tab)
	if err != nil {
		return nil, nil, err
	}
	return out, tab, nil
}

// parseAll parses a sequence of expressions, recording spans in tab when it
// is not nil.
func parseAll(name, src string, tab *diag.Source) ([]expr.Expr, error) {
	var p parser
	if err := p.init(name, src, tab); err != nil {
		return nil, err
	}
	var out []expr.Expr
	for {
		p.skipNewlines()
		if p.peek().kind == tokEOF {
			return out, nil
		}
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if t := p.peek(); t.kind != tokNewline && t.kind != tokEOF {
			return nil, p.errAt(t, "unexpected %q after expression", p.text(t))
		}
	}
}

type parser struct {
	name string
	src  string
	toks []token
	i    int
	tab  *diag.Source // nil: record no spans
}

func (p *parser) init(name, src string, tab *diag.Source) error {
	toks, errPos, err := lex(src)
	if err != nil {
		return diag.Newf(diag.Parse, "P001", "%s", err).
			WithPos(name, diag.Position(src, errPos))
	}
	*p = parser{name: name, src: src, toks: toks, tab: tab}
	return nil
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }
func (p *parser) skipNewlines() {
	for p.toks[p.i].kind == tokNewline {
		p.i++
	}
}

// text is t's text as error messages quote it: an operator's spelling, a
// string's decoded value, a slot's digits, the source text of a name or
// number, and "" for a pattern, a newline or the end of input.
func (p *parser) text(t token) string {
	switch t.kind {
	case tokPunct:
		return punctText[t.op]
	case tokString:
		return stringValue(p.src[t.pos+1 : t.end-1])
	case tokSlot:
		return p.src[t.pos+1 : t.end]
	case tokIdent, tokInt, tokReal:
		return p.src[t.pos:t.end]
	}
	return ""
}

// isPunct reports whether t is the operator op.
func isPunct(t token, op punct) bool { return t.kind == tokPunct && t.op == op }

func (p *parser) errAt(t token, format string, args ...any) error {
	return diag.Newf(diag.Parse, "P002", "%s", fmt.Sprintf(format, args...)).
		WithPos(p.name, diag.Position(p.src, int(t.pos)))
}

// span records e's byte range [start, end-of-previous-token) in the span
// table, if there is one, and returns e, so parse productions can tag nodes
// as they build them.
func (p *parser) span(e expr.Expr, start int) expr.Expr {
	if p.tab == nil {
		return e
	}
	end := start
	if p.i > 0 {
		end = int(p.toks[p.i-1].end)
	}
	p.tab.SetSpan(e, start, end)
	return e
}

func (p *parser) expectPunct(op punct) error {
	t := p.next()
	if !isPunct(t, op) {
		return p.errAt(t, "expected %q, found %q", punctText[op], p.text(t))
	}
	return nil
}

// Operator precedences; must agree with the InputForm printer in expr.
const (
	precCompound = 10
	precSet      = 20
	precFunc     = 25
	precRule     = 35
	precCond     = 38
	precReplace  = 30
	precOr       = 40
	precAnd      = 50
	precNot      = 55
	precCompare  = 60
	precSpan     = 65
	precPlus     = 70
	precTimes    = 80
	precStrJoin  = 85
	precUnary    = 90
	precPower    = 100
	precApply    = 108
	precMapAt    = 110
	precPostfix  = 120
)

type infixSpec struct {
	head  *expr.Symbol // nil: the operator is not infix
	prec  int
	right bool
	nary  bool // flatten chains of the same operator into one Normal
}

var infixTable = [numPuncts]infixSpec{
	opSet:          {expr.Sym("Set"), precSet, true, false},
	opSetDelayed:   {expr.Sym("SetDelayed"), precSet, true, false},
	opAddTo:        {expr.Sym("AddTo"), precSet, true, false},
	opSubtractFrom: {expr.Sym("SubtractFrom"), precSet, true, false},
	opTimesBy:      {expr.Sym("TimesBy"), precSet, true, false},
	opDivideBy:     {expr.Sym("DivideBy"), precSet, true, false},
	opRule:         {expr.Sym("Rule"), precRule, true, false},
	opRuleDelayed:  {expr.Sym("RuleDelayed"), precRule, true, false},
	opReplaceAll:   {expr.Sym("ReplaceAll"), precReplace, false, false},
	opCondition:    {expr.Sym("Condition"), precCond, false, false},
	opOr:           {expr.Sym("Or"), precOr, false, true},
	opAnd:          {expr.Sym("And"), precAnd, false, true},
	opEqual:        {expr.Sym("Equal"), precCompare, false, true},
	opUnequal:      {expr.Sym("Unequal"), precCompare, false, true},
	opSameQ:        {expr.Sym("SameQ"), precCompare, false, true},
	opUnsameQ:      {expr.Sym("UnsameQ"), precCompare, false, true},
	opLess:         {expr.Sym("Less"), precCompare, false, true},
	opLessEqual:    {expr.Sym("LessEqual"), precCompare, false, true},
	opGreater:      {expr.Sym("Greater"), precCompare, false, true},
	opGreaterEqual: {expr.Sym("GreaterEqual"), precCompare, false, true},
	opPlus:         {expr.Sym("Plus"), precPlus, false, true},
	opMinus:        {expr.Sym("Subtract"), precPlus, false, false},
	opTimes:        {expr.Sym("Times"), precTimes, false, true},
	opDivide:       {expr.Sym("Divide"), precTimes, false, false},
	opPower:        {expr.Sym("Power"), precPower, true, false},
	opStringJoin:   {expr.Sym("StringJoin"), precStrJoin, false, true},
	opSpan:         {expr.Sym("Span"), precSpan, false, false},
	opApply:        {expr.Sym("Apply"), precApply, true, false},
	opMap:          {expr.Sym("Map"), precMapAt, true, false},
}

// parseExpr parses an expression whose infix operators all bind tighter than
// minPrec. Every node built here is tagged with the byte range it was parsed
// from (the span table skips interned symbols).
func (p *parser) parseExpr(minPrec int) (expr.Expr, error) {
	lhs, start, err := p.parsePrefix()
	if err != nil {
		return nil, err
	}
	// chain is the last n-ary node this loop built. Nothing else holds it,
	// so the next operand of its chain is appended to its arguments in
	// place: a+b+c+... grows one slice instead of copying it per operand.
	var chain *expr.Normal
	for {
		t := p.peek()
		if t.kind != tokPunct {
			return lhs, nil
		}
		switch t.op {
		case opSemi:
			if precCompound < minPrec {
				return lhs, nil
			}
			lhs, err = p.parseCompound(lhs)
			if err != nil {
				return nil, err
			}
			p.span(lhs, start)
			continue
		case opFunction:
			if precFunc < minPrec {
				return lhs, nil
			}
			p.next()
			lhs = p.span(expr.New(expr.SymFunction, lhs), start)
			continue
		case opIncrement:
			if precPostfix < minPrec {
				return lhs, nil
			}
			p.next()
			lhs = p.span(expr.NewS("Increment", lhs), start)
			continue
		case opDecrement:
			if precPostfix < minPrec {
				return lhs, nil
			}
			p.next()
			lhs = p.span(expr.NewS("Decrement", lhs), start)
			continue
		case opAt:
			if precMapAt < minPrec {
				return lhs, nil
			}
			p.next()
			rhs, err := p.parseExpr(precMapAt)
			if err != nil {
				return nil, err
			}
			lhs = p.span(expr.New(lhs, rhs), start)
			continue
		case opLBracket:
			if precPostfix < minPrec {
				return lhs, nil
			}
			lhs, err = p.parseBracketed(lhs)
			if err != nil {
				return nil, err
			}
			p.span(lhs, start)
			continue
		}
		spec := infixTable[t.op]
		if spec.head == nil || spec.prec < minPrec {
			return lhs, nil
		}
		p.next()
		childMin := spec.prec + 1
		if spec.right {
			childMin = spec.prec
		}
		rhs, err := p.parseExpr(childMin)
		if err != nil {
			return nil, err
		}
		if !spec.nary {
			lhs = p.span(expr.New(spec.head, lhs, rhs), start)
			continue
		}
		if n, ok := expr.IsNormal(lhs, spec.head); ok {
			args := n.Args()
			if n != chain {
				args = args[:len(args):len(args)] // not ours: append copies
			}
			chain = n.WithArgs(append(args, rhs)...)
		} else {
			chain = expr.New(spec.head, lhs, rhs)
		}
		lhs = p.span(chain, start)
	}
}

// parseCompound parses a ; chain starting from first. A trailing semicolon
// (followed by a terminator) contributes Null, matching the language.
func (p *parser) parseCompound(first expr.Expr) (expr.Expr, error) {
	args := []expr.Expr{first}
	for isPunct(p.peek(), opSemi) {
		p.next()
		nt := p.peek()
		if nt.kind == tokEOF || nt.kind == tokNewline ||
			(nt.kind == tokPunct && (nt.op == opRBracket || nt.op == opRParen || nt.op == opRBrace || nt.op == opComma)) {
			args = append(args, expr.SymNull)
			break
		}
		e, err := p.parseExpr(precCompound + 1)
		if err != nil {
			return nil, err
		}
		args = append(args, e)
	}
	return expr.New(expr.SymCompoundExpression, args...), nil
}

// parseBracketed parses f[...] or Part f[[...]] given the already-parsed head.
func (p *parser) parseBracketed(head expr.Expr) (expr.Expr, error) {
	if err := p.expectPunct(opLBracket); err != nil {
		return nil, err
	}
	if isPunct(p.peek(), opLBracket) {
		// Part: a[[i, j]]
		p.next()
		args, err := p.parseArgList(opRBracket)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(opRBracket); err != nil {
			return nil, err
		}
		return expr.NewS("Part", append([]expr.Expr{head}, args...)...), nil
	}
	args, err := p.parseArgList(opRBracket)
	if err != nil {
		return nil, err
	}
	return expr.New(head, args...), nil
}

// parseArgList parses a comma-separated list up to and including closer.
func (p *parser) parseArgList(closer punct) ([]expr.Expr, error) {
	var args []expr.Expr
	p.skipNewlines()
	if isPunct(p.peek(), closer) {
		p.next()
		return args, nil
	}
	for {
		e, err := p.parseExpr(0)
		if err != nil {
			return nil, err
		}
		args = append(args, e)
		t := p.next()
		if isPunct(t, closer) {
			return args, nil
		}
		if !isPunct(t, opComma) {
			return nil, p.errAt(t, "expected %q or \",\", found %q", punctText[closer], p.text(t))
		}
		p.skipNewlines()
	}
}

// parsePrefix parses one prefix operand and returns it together with the
// byte offset of its first token, which parseExpr reuses as the start of
// every infix node the operand ends up inside.
func (p *parser) parsePrefix() (expr.Expr, int, error) {
	p.skipNewlines() // an operand may follow a newline: "a =\n 1"
	t := p.next()
	pos := int(t.pos)
	ok2 := func(e expr.Expr) (expr.Expr, int, error) { return p.span(e, pos), pos, nil }
	fail := func(err error) (expr.Expr, int, error) { return nil, pos, err }
	switch t.kind {
	case tokInt:
		text := p.text(t)
		if v, err := strconv.ParseInt(text, 10, 64); err == nil {
			return ok2(expr.FromInt64(v))
		}
		b, ok := new(big.Int).SetString(text, 10)
		if !ok {
			return fail(p.errAt(t, "bad integer %q", text))
		}
		return ok2(expr.FromBig(b))
	case tokReal:
		text := p.text(t)
		v, err := strconv.ParseFloat(strings.Replace(text, "*^", "e", 1), 64)
		if err != nil {
			return fail(p.errAt(t, "bad real %q", text))
		}
		return ok2(expr.FromFloat(v))
	case tokString:
		return ok2(expr.FromString(p.text(t)))
	case tokIdent:
		return ok2(expr.Sym(p.text(t)))
	case tokSlot:
		text := p.text(t)
		if text == "" {
			return ok2(expr.New(expr.SymSlot, expr.FromInt64(1)))
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return fail(p.errAt(t, "bad slot %q", text))
		}
		return ok2(expr.New(expr.SymSlot, expr.FromInt64(v)))
	case tokPattern:
		return ok2(p.buildPattern(t))
	case tokPunct:
		switch t.op {
		case opLParen:
			e, err := p.parseExpr(0)
			if err != nil {
				return fail(err)
			}
			if err := p.expectPunct(opRParen); err != nil {
				return fail(err)
			}
			return e, pos, nil
		case opLBrace:
			args, err := p.parseArgList(opRBrace)
			if err != nil {
				return fail(err)
			}
			return ok2(expr.List(args...))
		case opMinus:
			operand, err := p.parseExpr(precUnary)
			if err != nil {
				return fail(err)
			}
			switch v := operand.(type) {
			case *expr.Integer:
				if v.IsMachine() {
					return ok2(expr.FromInt64(-v.Int64()))
				}
				return ok2(expr.FromBig(new(big.Int).Neg(v.Big())))
			case *expr.Real:
				return ok2(expr.FromFloat(-v.V))
			}
			return ok2(expr.NewS("Minus", operand))
		case opPlus:
			e, err := p.parseExpr(precUnary)
			if err != nil {
				return fail(err)
			}
			return e, pos, nil
		case opNot:
			operand, err := p.parseExpr(precNot)
			if err != nil {
				return fail(err)
			}
			return ok2(expr.NewS("Not", operand))
		}
	case tokEOF:
		return fail(p.errAt(t, "unexpected end of input"))
	}
	return fail(p.errAt(t, "unexpected token %q", p.text(t)))
}

func (p *parser) buildPattern(t token) expr.Expr {
	var blank expr.Expr
	var headArgs []expr.Expr
	if head := p.src[int(t.pos)+int(t.count) : t.end]; head != "" {
		headArgs = []expr.Expr{expr.Sym(head)}
	}
	switch t.count {
	case 1:
		blank = expr.New(expr.SymBlank, headArgs...)
	case 2:
		blank = expr.NewS("BlankSequence", headArgs...)
	default:
		blank = expr.NewS("BlankNullSequence", headArgs...)
	}
	if t.name == t.pos {
		return blank
	}
	return expr.New(expr.SymPattern, expr.Sym(p.src[t.name:t.pos]), blank)
}
