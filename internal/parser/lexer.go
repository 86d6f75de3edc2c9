// Package parser implements a lexer and Pratt parser for the Wolfram
// Language surface syntax used throughout this repository: bracketed
// application f[x], lists {..}, Part a[[i]], patterns x_Integer, pure
// functions (#+1)&, and the standard operator grammar (;  = :=  ->  /.  ||
// &&  comparisons  + -  * /  ^  @  /@  ++ --). Parsed programs are plain
// expr.Expr trees in FullForm, exactly the inert MExpr data that both the
// interpreter and the compiler consume (paper §2.1, §4.2).
package parser

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokNewline
	tokIdent   // Plus, x, $foo
	tokInt     // 123
	tokReal    // 1.5, 2., 1.5*^-3
	tokString  // "..."
	tokPattern // x_, x_Integer, _, __, ___Real, x__
	tokSlot    // #, #2
	tokPunct   // operators and brackets
)

// token is one lexeme, 16 bytes and no strings: its text is src[pos:end],
// read back through the parser's text (a string token's value is decoded
// only when the parser builds its atom).
type token struct {
	pos int32 // byte offset in input, for error messages and spans
	end int32 // byte offset just past the token, filled in by emit
	// name is where a pattern's bound name starts: the name is
	// src[name:pos] (empty for anonymous blanks), its underscores follow at
	// pos and its head runs from pos+count to end.
	name  int32
	kind  tokKind
	op    punct // tokPunct: which operator
	count uint8 // tokPattern: 1=_ 2=__ 3=___
}

type lexer struct {
	src    string
	pos    int
	depth  int // bracket nesting; newlines inside brackets are skipped
	toks   []token
	errPos int
	err    error
}

func (lx *lexer) errorf(pos int, format string, args ...any) {
	if lx.err == nil {
		lx.err = fmt.Errorf(format, args...)
		lx.errPos = pos
	}
}

func isIdentStart(r rune) bool {
	return r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '$' || r == '`' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lex tokenises the whole input. On error, the returned offset locates the
// failure in src.
func lex(src string) (toks []token, errPos int, err error) {
	if len(src) > math.MaxInt32 {
		return nil, 0, fmt.Errorf("source of %d bytes is over the %d-byte limit", len(src), math.MaxInt32)
	}
	// One allocation for the token array instead of doubling up from nil:
	// programs run 2-3 source bytes per token, and the +8 covers one-line
	// queries, which are denser (gfib[10] is 5 tokens in 8 bytes).
	lx := lexer{src: src, toks: make([]token, 0, len(src)/2+8)}
	for lx.pos < len(lx.src) && lx.err == nil {
		lx.next()
	}
	lx.emit(token{kind: tokEOF, pos: int32(lx.pos)})
	return lx.toks, lx.errPos, lx.err
}

// emit appends a token; every emit site runs with lx.pos just past the
// token's text, so the end offset is recorded here.
func (lx *lexer) emit(t token) {
	t.end = int32(lx.pos)
	lx.toks = append(lx.toks, t)
}

func (lx *lexer) peekRune() (rune, int) {
	if lx.pos >= len(lx.src) {
		return 0, 0
	}
	return utf8.DecodeRuneInString(lx.src[lx.pos:])
}

func (lx *lexer) next() {
	start := lx.pos
	r, w := lx.peekRune()
	switch {
	case r == '\n':
		lx.pos += w
		if lx.depth == 0 {
			// Collapse runs of newlines into one token.
			if n := len(lx.toks); n == 0 || lx.toks[n-1].kind == tokNewline {
				return
			}
			lx.emit(token{kind: tokNewline, pos: int32(start)})
		}
	case r == ' ' || r == '\t' || r == '\r':
		lx.pos += w
	case r == '(' && strings.HasPrefix(lx.src[lx.pos:], "(*"):
		lx.comment()
	case r == '"':
		lx.lexString()
	// ASCII digits only: lexNumber consumes exactly [0-9], so dispatching
	// on unicode.IsDigit would make zero progress on a digit like U+1FBF5
	// and loop forever. Non-ASCII digits fall through to the error path.
	case (r >= '0' && r <= '9') || (r == '.' && lx.pos+1 < len(lx.src) && isDigitByte(lx.src[lx.pos+1])):
		lx.lexNumber()
	case isIdentStart(r):
		lx.lexIdentOrPattern()
	case r == '_':
		lx.lexBlank(start)
	case r == '#':
		lx.pos += w
		lx.takeDigits()
		lx.emit(token{kind: tokSlot, pos: int32(start)})
	default:
		lx.lexPunct()
	}
}

func isDigitByte(b byte) bool { return b >= '0' && b <= '9' }

func (lx *lexer) comment() {
	start := lx.pos
	lx.pos += 2
	depth := 1
	for lx.pos < len(lx.src) && depth > 0 {
		if strings.HasPrefix(lx.src[lx.pos:], "(*") {
			depth++
			lx.pos += 2
		} else if strings.HasPrefix(lx.src[lx.pos:], "*)") {
			depth--
			lx.pos += 2
		} else {
			_, w := lx.peekRune()
			lx.pos += w
		}
	}
	if depth != 0 {
		lx.errorf(start, "unterminated comment")
	}
}

// lexString checks a string literal's escapes and finds its closing quote;
// stringValue decodes it.
func (lx *lexer) lexString() {
	start := lx.pos
	lx.pos++ // opening quote
	for lx.pos < len(lx.src) {
		r, w := lx.peekRune()
		lx.pos += w
		switch r {
		case '"':
			lx.emit(token{kind: tokString, pos: int32(start)})
			return
		case '\\':
			e, ew := lx.peekRune()
			lx.pos += ew
			if _, ok := unescape(e); !ok {
				lx.errorf(lx.pos, "bad string escape \\%c", e)
				return
			}
		}
	}
	lx.errorf(start, "unterminated string")
}

// unescape maps the character after a backslash to the byte it stands for.
func unescape(e rune) (byte, bool) {
	switch e {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case '"', '\\':
		return byte(e), true
	}
	return 0, false
}

// stringValue decodes the body of a string literal the lexer accepted: its
// escapes are resolved and each invalid UTF-8 byte reads as U+FFFD. The
// value is a copy, so a string atom does not keep the whole source alive.
func stringValue(body string) string {
	if !strings.ContainsRune(body, '\\') && utf8.ValidString(body) {
		return strings.Clone(body)
	}
	var b strings.Builder
	for i := 0; i < len(body); {
		r, w := utf8.DecodeRuneInString(body[i:])
		i += w
		if r == '\\' {
			c, _ := unescape(rune(body[i]))
			b.WriteByte(c)
			i++
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

func (lx *lexer) takeDigits() {
	for lx.pos < len(lx.src) && isDigitByte(lx.src[lx.pos]) {
		lx.pos++
	}
}

func (lx *lexer) lexNumber() {
	start := lx.pos
	lx.takeDigits()
	kind := tokInt
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		// "1." and "1.5" are reals; "a[[1]].x" cannot occur since we have
		// no Dot operator.
		kind = tokReal
		lx.pos++
		lx.takeDigits()
	}
	// Scientific notation: both 1.5e-3 and the WL form 1.5*^-3.
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') &&
		lx.pos+1 < len(lx.src) && (isDigitByte(lx.src[lx.pos+1]) || lx.src[lx.pos+1] == '-' || lx.src[lx.pos+1] == '+') {
		kind = tokReal
		lx.pos++
		if lx.src[lx.pos] == '-' || lx.src[lx.pos] == '+' {
			lx.pos++
		}
		lx.takeDigits()
	} else if strings.HasPrefix(lx.src[lx.pos:], "*^") {
		kind = tokReal
		lx.pos += 2
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '-' || lx.src[lx.pos] == '+') {
			lx.pos++
		}
		lx.takeDigits()
	}
	lx.emit(token{kind: kind, pos: int32(start)})
}

func (lx *lexer) lexIdentOrPattern() {
	start := lx.pos
	lx.takeIdent()
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '_' {
		lx.lexBlank(start)
		return
	}
	lx.emit(token{kind: tokIdent, pos: int32(start)})
}

func (lx *lexer) takeIdent() {
	for {
		r, w := lx.peekRune()
		if w == 0 || !isIdentPart(r) {
			return
		}
		lx.pos += w
	}
}

// lexBlank scans _, __, ___ with an optional head, producing a pattern token
// bound to the name src[name:lx.pos] (empty for an anonymous blank).
func (lx *lexer) lexBlank(name int) {
	start := lx.pos
	count := 0
	for lx.pos < len(lx.src) && lx.src[lx.pos] == '_' && count < 3 {
		lx.pos++
		count++
	}
	if r, _ := lx.peekRune(); isIdentStart(r) {
		lx.takeIdent()
	}
	lx.emit(token{kind: tokPattern, pos: int32(start), name: int32(name), count: uint8(count)})
}

// punct names an operator or bracket; punctText spells it. Operators are
// declared longest first, so no operator precedes one it is a prefix of.
type punct uint8

const (
	opNone punct = iota
	opSameQ
	opUnsameQ
	opEqual
	opUnequal
	opLessEqual
	opGreaterEqual
	opSetDelayed
	opRule
	opRuleDelayed
	opReplaceAll
	opCondition
	opMap
	opAnd
	opOr
	opIncrement
	opDecrement
	opAddTo
	opSubtractFrom
	opTimesBy
	opDivideBy
	opApply
	opStringJoin
	opSpan
	opLBracket
	opRBracket
	opLBrace
	opRBrace
	opLParen
	opRParen
	opComma
	opSemi
	opSet
	opLess
	opGreater
	opPlus
	opMinus
	opTimes
	opDivide
	opPower
	opNot
	opFunction
	opAt
	numPuncts
)

// Note: [[ and ]] are NOT lexed as units — a[[f[1]]] would mis-tokenise;
// the parser recognises Part from adjacent brackets instead.
var punctText = [numPuncts]string{
	opSameQ: "===", opUnsameQ: "=!=", opEqual: "==", opUnequal: "!=",
	opLessEqual: "<=", opGreaterEqual: ">=", opSetDelayed: ":=", opRule: "->",
	opRuleDelayed: ":>", opReplaceAll: "/.", opCondition: "/;", opMap: "/@",
	opAnd: "&&", opOr: "||", opIncrement: "++", opDecrement: "--",
	opAddTo: "+=", opSubtractFrom: "-=", opTimesBy: "*=", opDivideBy: "/=",
	opApply: "@@", opStringJoin: "<>", opSpan: ";;",
	opLBracket: "[", opRBracket: "]", opLBrace: "{", opRBrace: "}",
	opLParen: "(", opRParen: ")", opComma: ",", opSemi: ";", opSet: "=",
	opLess: "<", opGreater: ">", opPlus: "+", opMinus: "-", opTimes: "*",
	opDivide: "/", opPower: "^", opNot: "!", opFunction: "&", opAt: "@",
}

// punctsByByte lists the operators that start with each byte, longest
// first: at most five candidates, where a scan of the whole table would
// try 42.
var punctsByByte = func() (t [256][]punct) {
	for op := opNone + 1; op < numPuncts; op++ {
		first := punctText[op][0]
		t[first] = append(t[first], op)
	}
	return t
}()

func (lx *lexer) lexPunct() {
	rest := lx.src[lx.pos:]
	for _, op := range punctsByByte[rest[0]] {
		if strings.HasPrefix(rest, punctText[op]) {
			start := lx.pos
			lx.pos += len(punctText[op])
			switch op {
			case opLBracket, opLBrace, opLParen:
				lx.depth++
			case opRBracket, opRBrace, opRParen:
				if lx.depth > 0 {
					lx.depth--
				}
			}
			lx.emit(token{kind: tokPunct, op: op, pos: int32(start)})
			return
		}
	}
	r, _ := lx.peekRune()
	lx.errorf(lx.pos, "unexpected character %q", r)
	lx.pos = len(lx.src)
}
