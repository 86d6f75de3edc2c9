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
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

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

type token struct {
	kind tokKind
	text string // raw text (punct: the operator; string: unquoted value)
	pos  int    // byte offset in input, for error messages and spans
	end  int    // byte offset just past the token, filled in by emit

	// pattern fields
	patName  string // "" for anonymous blanks
	patHead  string // "" for untyped blanks
	patCount int    // 1=_ 2=__ 3=___
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
	// One allocation for the token array instead of doubling up from nil:
	// programs run 2-3 source bytes per token, and the +8 covers one-line
	// queries, which are denser (gfib[10] is 5 tokens in 8 bytes).
	lx := &lexer{src: src, toks: make([]token, 0, len(src)/2+8)}
	for lx.pos < len(lx.src) && lx.err == nil {
		lx.next()
	}
	lx.emit(token{kind: tokEOF, pos: lx.pos})
	return lx.toks, lx.errPos, lx.err
}

// emit appends a token; every emit site runs with lx.pos just past the
// token's text, so the end offset is recorded here.
func (lx *lexer) emit(t token) {
	t.end = lx.pos
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
			lx.emit(token{kind: tokNewline, pos: start})
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
		lx.lexBlank("")
	case r == '#':
		lx.pos += w
		num := lx.takeDigits()
		lx.emit(token{kind: tokSlot, text: num, pos: start})
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

func (lx *lexer) lexString() {
	start := lx.pos
	lx.pos++ // opening quote
	var b strings.Builder
	for lx.pos < len(lx.src) {
		r, w := lx.peekRune()
		lx.pos += w
		switch r {
		case '"':
			lx.emit(token{kind: tokString, text: b.String(), pos: start})
			return
		case '\\':
			e, ew := lx.peekRune()
			lx.pos += ew
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				lx.errorf(lx.pos, "bad string escape \\%c", e)
				return
			}
		default:
			b.WriteRune(r)
		}
	}
	lx.errorf(start, "unterminated string")
}

func (lx *lexer) takeDigits() string {
	s := lx.pos
	for lx.pos < len(lx.src) && isDigitByte(lx.src[lx.pos]) {
		lx.pos++
	}
	return lx.src[s:lx.pos]
}

func (lx *lexer) lexNumber() {
	start := lx.pos
	lx.takeDigits()
	isReal := false
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		// "1." and "1.5" are reals; "a[[1]].x" cannot occur since we have
		// no Dot operator.
		isReal = true
		lx.pos++
		lx.takeDigits()
	}
	// Scientific notation: both 1.5e-3 and the WL form 1.5*^-3.
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') &&
		lx.pos+1 < len(lx.src) && (isDigitByte(lx.src[lx.pos+1]) || lx.src[lx.pos+1] == '-' || lx.src[lx.pos+1] == '+') {
		isReal = true
		lx.pos++
		if lx.src[lx.pos] == '-' || lx.src[lx.pos] == '+' {
			lx.pos++
		}
		lx.takeDigits()
	} else if strings.HasPrefix(lx.src[lx.pos:], "*^") {
		isReal = true
		lx.pos += 2
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '-' || lx.src[lx.pos] == '+') {
			lx.pos++
		}
		lx.takeDigits()
	}
	text := lx.src[start:lx.pos]
	kind := tokInt
	if isReal {
		kind = tokReal
	}
	lx.emit(token{kind: kind, text: text, pos: start})
}

func (lx *lexer) lexIdentOrPattern() {
	start := lx.pos
	for {
		r, w := lx.peekRune()
		if w == 0 || !isIdentPart(r) {
			break
		}
		lx.pos += w
	}
	name := lx.src[start:lx.pos]
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '_' {
		lx.lexBlank(name)
		return
	}
	lx.emit(token{kind: tokIdent, text: name, pos: start})
}

// lexBlank scans _, __, ___ with an optional head, producing a pattern token
// bound to name (possibly empty).
func (lx *lexer) lexBlank(name string) {
	start := lx.pos
	count := 0
	for lx.pos < len(lx.src) && lx.src[lx.pos] == '_' && count < 3 {
		lx.pos++
		count++
	}
	head := ""
	if r, _ := lx.peekRune(); isIdentStart(r) {
		hs := lx.pos
		for {
			r, w := lx.peekRune()
			if w == 0 || !isIdentPart(r) {
				break
			}
			lx.pos += w
		}
		head = lx.src[hs:lx.pos]
	}
	lx.emit(token{
		kind: tokPattern, pos: start,
		patName: name, patHead: head, patCount: count,
	})
}

// multi-character operators, longest first. Note: [[ and ]] are NOT lexed as
// units — a[[f[1]]] would mis-tokenise; the parser recognises Part from
// adjacent brackets instead.
var punctOps = []string{
	"===", "=!=", "==", "!=", "<=", ">=", ":=", "->", ":>",
	"/.", "/;", "/@", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "@@",
	"<>", ";;",
	"[", "]", "{", "}", "(", ")", ",", ";", "=", "<", ">", "+", "-", "*",
	"/", "^", "!", "&", "@",
}

func (lx *lexer) lexPunct() {
	for _, op := range punctOps {
		if strings.HasPrefix(lx.src[lx.pos:], op) {
			start := lx.pos
			lx.pos += len(op)
			switch op {
			case "[", "{", "(":
				lx.depth++
			case "]", "}", ")":
				if lx.depth > 0 {
					lx.depth--
				}
			}
			lx.emit(token{kind: tokPunct, text: op, pos: start})
			return
		}
	}
	r, _ := lx.peekRune()
	lx.errorf(lx.pos, "unexpected character %q", r)
	lx.pos = len(lx.src)
}
