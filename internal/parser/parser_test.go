package parser

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"wolfc/internal/expr"
)

// full parses src and returns the FullForm string, or ERROR:<msg>.
func full(t *testing.T, src string) string {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		return "ERROR:" + err.Error()
	}
	return expr.FullForm(e)
}

// atomRows maps each source to the FullForm it parses to.
var atomRows = map[string]string{
	"42":                             "42",
	"-7":                             "-7",
	"123456789012345678901234567890": "123456789012345678901234567890",
	"1.5":                            "1.5",
	"2.":                             "2.",
	"1.5e-3":                         "0.0015",
	"1.5*^2":                         "150.",
	`"hi"`:                           `"hi"`,
	`"a\nb"`:                         `"a\nb"`,
	"x":                              "x",
	"$Context":                       "$Context",
	"foo`bar":                        "foo`bar",
	"#":                              "Slot[1]",
	"#3":                             "Slot[3]",
	"_":                              "Blank[]",
	"_Integer":                       "Blank[Integer]",
	"x_":                             "Pattern[x, Blank[]]",
	"x_Real":                         "Pattern[x, Blank[Real]]",
	"x__":                            "Pattern[x, BlankSequence[]]",
	"___":                            "BlankNullSequence[]",
	"rest__":                         "Pattern[rest, BlankSequence[]]",
}

func TestParseAtoms(t *testing.T) {
	for src, want := range atomRows {
		if got := full(t, src); got != want {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
}

// operatorRows maps each source to the FullForm it parses to.
var operatorRows = map[string]string{
	"a+b":                    "Plus[a, b]",
	"a+b+c":                  "Plus[a, b, c]",
	"a-b":                    "Subtract[a, b]",
	"a-b-c":                  "Subtract[Subtract[a, b], c]",
	"a*b*c":                  "Times[a, b, c]",
	"a/b":                    "Divide[a, b]",
	"a+b*c":                  "Plus[a, Times[b, c]]",
	"(a+b)*c":                "Times[Plus[a, b], c]",
	"a^b^c":                  "Power[a, Power[b, c]]",
	"-x":                     "Minus[x]",
	"-x+y":                   "Plus[Minus[x], y]",
	"2^-3":                   "Power[2, -3]",
	"a==b":                   "Equal[a, b]",
	"a==b==c":                "Equal[a, b, c]",
	"a<b":                    "Less[a, b]",
	"a<=b":                   "LessEqual[a, b]",
	"a!=b":                   "Unequal[a, b]",
	"a===b":                  "SameQ[a, b]",
	"a=!=b":                  "UnsameQ[a, b]",
	"a&&b&&c":                "And[a, b, c]",
	"a||b":                   "Or[a, b]",
	"!p":                     "Not[p]",
	"!p&&q":                  "And[Not[p], q]",
	"a->b":                   "Rule[a, b]",
	"a:>b":                   "RuleDelayed[a, b]",
	"x/.a->b":                "ReplaceAll[x, Rule[a, b]]",
	"a=1":                    "Set[a, 1]",
	"a:=b":                   "SetDelayed[a, b]",
	"a+=2":                   "AddTo[a, 2]",
	"a-=2":                   "SubtractFrom[a, 2]",
	"i++":                    "Increment[i]",
	"i--":                    "Decrement[i]",
	"a=b=c":                  "Set[a, Set[b, c]]",
	"f@x":                    "f[x]",
	"f@g@x":                  "f[g[x]]",
	"f/@list":                "Map[f, list]",
	"f@@list":                "Apply[f, list]",
	"a;b":                    "CompoundExpression[a, b]",
	"a;b;":                   "CompoundExpression[a, b, Null]",
	"a=1;a":                  "CompoundExpression[Set[a, 1], a]",
	"#+1&":                   "Function[Plus[Slot[1], 1]]",
	"(#^2&)[3]":              "Function[Power[Slot[1], 2]][3]",
	"a<b&&b<c":               "And[Less[a, b], Less[b, c]]",
	`"a"<>"b"`:               `StringJoin["a", "b"]`,
	`"a" <> "b" <> "c"`:      `StringJoin["a", "b", "c"]`,
	`s <> "x" == t`:          `Equal[StringJoin[s, "x"], t]`,
	`StringLength[a <> b]+1`: "Plus[StringLength[StringJoin[a, b]], 1]",
	"v[[2 ;; -1]]":           "Part[v, Span[2, -1]]",
	"v[[a+1 ;; b-1]]":        "Part[v, Span[Plus[a, 1], Subtract[b, 1]]]",
}

func TestParseOperators(t *testing.T) {
	for src, want := range operatorRows {
		if got := full(t, src); got != want {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
}

// bracketRows maps each source to the FullForm it parses to.
var bracketRows = map[string]string{
	"f[]":            "f[]",
	"f[x]":           "f[x]",
	"f[x, y]":        "f[x, y]",
	"f[x][y]":        "f[x][y]",
	"{}":             "List[]",
	"{1, 2, 3}":      "List[1, 2, 3]",
	"{{1, 2}, {3}}":  "List[List[1, 2], List[3]]",
	"a[[1]]":         "Part[a, 1]",
	"a[[i, j]]":      "Part[a, i, j]",
	"a[[f[1]]]":      "Part[a, f[1]]",
	"a[[1]][[2]]":    "Part[Part[a, 1], 2]",
	"f[a[[i]]]":      "f[Part[a, i]]",
	"Sin[x]+Cos[y]":  "Plus[Sin[x], Cos[y]]",
	"f[{1, 2}, g[]]": "f[List[1, 2], g[]]",
}

func TestParseBrackets(t *testing.T) {
	for src, want := range bracketRows {
		if got := full(t, src); got != want {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
}

// programRows are real programs from the paper, with the FullForm each
// parses to.
var programRows = map[string]string{
	"fib = Function[{n}, If[n < 1, 1, fib[n-1]+fib[n-2]]]": "Set[fib, Function[List[n], If[Less[n, 1], 1, Plus[fib[Subtract[n, 1]], fib[Subtract[n, 2]]]]]]",
	"Module[{a=1,b=1},a+b+Module[{a=3},a]]":                "Module[List[Set[a, 1], Set[b, 1]], Plus[a, b, Module[List[Set[a, 3]], a]]]",
	"i=0;While[True,If[i>3,i--,i++]]":                      "CompoundExpression[Set[i, 0], While[True, If[Greater[i, 3], Decrement[i], Increment[i]]]]",
	"And[x_, y_] -> If[x === True, y === True, False]":     "Rule[And[Pattern[x, Blank[]], Pattern[y, Blank[]]], If[SameQ[x, True], SameQ[y, True], False]]",
	"Typed[arg, \"MachineInteger\"]":                       `Typed[arg, "MachineInteger"]`,
}

func TestParseProgramExamples(t *testing.T) {
	for src, want := range programRows {
		if got := full(t, src); got != want {
			t.Errorf("Parse(%q) =\n  %s, want\n  %s", src, got, want)
		}
	}
}

func TestParseComments(t *testing.T) {
	got := full(t, "1 + (* a comment (* nested *) here *) 2")
	if got != "Plus[1, 2]" {
		t.Fatalf("comment parse = %s", got)
	}
}

func TestParseMultiline(t *testing.T) {
	src := `
a = 1
b = a + 2
f[x_] := x^2
`
	exprs, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(exprs) != 3 {
		t.Fatalf("got %d statements, want 3", len(exprs))
	}
	if expr.FullForm(exprs[2]) != "SetDelayed[f[Pattern[x, Blank[]]], Power[x, 2]]" {
		t.Fatalf("stmt 3 = %s", expr.FullForm(exprs[2]))
	}
	// Continuation across newline after an operator.
	e, err := Parse("a = \n 1 + \n 2")
	if err != nil {
		t.Fatal(err)
	}
	if expr.FullForm(e) != "Set[a, Plus[1, 2]]" {
		t.Fatalf("continuation = %s", expr.FullForm(e))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"f[",
		"f[1,",
		"(a+b",
		"{1, 2",
		"a +",
		`"unterminated`,
		"a ~ b",
		"1 2", // no implicit multiplication in this grammar
		"(* unterminated comment",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Property: InputForm printing round-trips through the parser for randomly
// shaped arithmetic trees.
func TestRoundTripQuick(t *testing.T) {
	type node struct {
		depth int
		seed  int64
	}
	var build func(depth int, seed int64) expr.Expr
	build = func(depth int, seed int64) expr.Expr {
		if depth <= 0 {
			switch seed % 4 {
			case 0:
				return expr.FromInt64(seed % 100)
			case 1:
				return expr.Sym("x")
			case 2:
				return expr.FromFloat(float64(seed%7) + 0.5)
			default:
				return expr.Sym("y")
			}
		}
		a := build(depth-1, seed/2)
		b := build(depth-1, seed/3+1)
		switch seed % 5 {
		case 0:
			return expr.NewS("Plus", a, b)
		case 1:
			return expr.NewS("Times", a, b)
		case 2:
			return expr.NewS("Power", a, b)
		case 3:
			return expr.NewS("f", a, b)
		default:
			return expr.List(a, b)
		}
	}
	f := func(depth uint8, seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		e := build(int(depth%4), seed)
		// The parser flattens nested Plus/Times chains (Flat heads), so an
		// exact round trip is not expected; instead the print→parse cycle
		// must reach a fixed point after one normalisation.
		src := expr.InputForm(e)
		got, err := Parse(src)
		if err != nil {
			t.Logf("failed to reparse %q: %v", src, err)
			return false
		}
		norm := expr.InputForm(got)
		got2, err := Parse(norm)
		if err != nil {
			t.Logf("failed to reparse normalised %q: %v", norm, err)
			return false
		}
		return expr.InputForm(got2) == norm
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// soupRows are inputs the uniform generator of TestParserNeverPanicsQuick
// rarely produces.
var soupRows = []string{
	"[[[[", "]]]]", "a[[", ";;", "&&&&", "x_/;/;", "#&#&", "1..2",
	"(*", "*)", "\"\\", "a<>", "<>", "-", "--", "f[,]", "{,}",
	"a =!=", "1 *^ 2", "x___y___", "`", "a``b", "\x00\x01", "𝒻[x]",
}

// Robustness: arbitrary input — including invalid UTF-8 and operator soup —
// must produce a parse error or an expression, never a panic.
func TestParserNeverPanicsQuick(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", s, r)
				ok = false
			}
		}()
		_, _ = Parse(s)
		_, _ = ParseAll(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Directed soup the uniform generator rarely produces.
	for _, s := range soupRows {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("panic on %q: %v", s, r)
				}
			}()
			_, _ = Parse(s)
		}()
	}
}

func TestErrorsMentionLine(t *testing.T) {
	_, err := Parse("a = 1 +\nb = ]")
	if err == nil || !strings.Contains(err.Error(), "at 2:") {
		t.Fatalf("error should carry a line-2 position, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "parse error") {
		t.Fatalf("error should be labelled a parse error, got %v", err)
	}
	// With a named source the file appears before the position.
	_, _, err = ParseSource("prog.wl", "f[1,")
	if err == nil || !strings.Contains(err.Error(), "prog.wl:1:") {
		t.Fatalf("named-source error should read file:line:col, got %v", err)
	}
}

func TestParseSourceSpans(t *testing.T) {
	e, src, err := ParseSource("t.wl", "f[x] +\ng[y]")
	if err != nil {
		t.Fatal(err)
	}
	pos, ok := src.PosOf(e)
	if !ok || pos.Line != 1 || pos.Col != 1 {
		t.Fatalf("whole-expression position = %v, %v; want 1:1", pos, ok)
	}
	plus, ok := e.(*expr.Normal)
	if !ok || len(plus.Args()) != 2 {
		t.Fatalf("expected binary Plus, got %s", expr.FullForm(e))
	}
	gpos, ok := src.PosOf(plus.Args()[1])
	if !ok || gpos.Line != 2 || gpos.Col != 1 {
		t.Fatalf("g[y] position = %v, %v; want 2:1", gpos, ok)
	}
	// Interned symbols are never recorded directly: they resolve through an
	// enclosing Normal, and a bare lookup fails rather than returning a
	// position leaked from an unrelated parse.
	if _, ok := src.SpanOf(expr.Sym("CompletelyFreshSymbolZZZ")); ok {
		t.Fatal("interned symbol should have no span of its own")
	}
}

// conditionRows maps each source to the FullForm it parses to.
var conditionRows = map[string]string{
	"x_ /; x > 0":            "Condition[Pattern[x, Blank[]], Greater[x, 0]]",
	"f[x_] /; EvenQ[x] := 1": "SetDelayed[Condition[f[Pattern[x, Blank[]]], EvenQ[x]], 1]",
	// /; binds tighter than :>, so the condition attaches to the RHS.
	"a :> b /; c": "RuleDelayed[a, Condition[b, c]]",
}

func TestConditionOperator(t *testing.T) {
	for src, want := range conditionRows {
		if got := full(t, src); got != want {
			t.Errorf("Parse(%q) = %s, want %s", src, got, want)
		}
	}
}

// TestTokenIsCompact: a token holds offsets into the source, not strings, so
// a query's token array is a few bytes a token.
func TestTokenIsCompact(t *testing.T) {
	if n := unsafe.Sizeof(token{}); n > 16 {
		t.Fatalf("token is %d bytes, want at most 16", n)
	}
}

// TestPunctMatchesLongestPrefix holds lexPunct's per-byte dispatch to the
// rule it replaced: the first operator of the whole table, longest first,
// that the input starts with. Every string of up to three bytes over the
// operator alphabet (and a byte that starts none) is tried.
func TestPunctMatchesLongestPrefix(t *testing.T) {
	table := []string{
		"===", "=!=", "==", "!=", "<=", ">=", ":=", "->", ":>",
		"/.", "/;", "/@", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "@@",
		"<>", ";;",
		"[", "]", "{", "}", "(", ")", ",", ";", "=", "<", ">", "+", "-", "*",
		"/", "^", "!", "&", "@",
	}
	if int(numPuncts)-1 != len(table) {
		t.Fatalf("%d operators, the reference table has %d", numPuncts-1, len(table))
	}
	want := func(s string) string {
		for _, op := range table {
			if strings.HasPrefix(s, op) {
				return op
			}
		}
		return ""
	}
	got := func(s string) string {
		lx := lexer{src: s}
		lx.lexPunct()
		if lx.err != nil {
			return ""
		}
		return punctText[lx.toks[0].op]
	}
	alphabet := "=!<>:-/.;@&|+*^[]{}(),a"
	var try func(prefix string)
	try = func(prefix string) {
		if prefix != "" && prefix[0] != 'a' {
			if g, w := got(prefix), want(prefix); g != w {
				t.Errorf("%q lexes to %q first, want %q", prefix, g, w)
			}
		}
		if len(prefix) == 3 {
			return
		}
		for i := range alphabet {
			try(prefix + alphabet[i:i+1])
		}
	}
	try("")
}

// TestStringValues: a string atom's value resolves escapes, reads an invalid
// UTF-8 byte as U+FFFD, and does not share the source's memory.
func TestStringValues(t *testing.T) {
	for src, want := range map[string]string{
		`"plain"`:         "plain",
		`"a\nb\t\"c\"\\"`: "a\nb\t\"c\"\\",
		"\"\xffx\"":       "�x",
		"\"é\\n\xfe\"":    "é\n�",
		`""`:              "",
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		s, ok := e.(*expr.String)
		if !ok || s.V != want {
			t.Errorf("%q parses to %s, want %q", src, expr.FullForm(e), want)
			continue
		}
		if s.V != "" && unsafe.StringData(s.V) == unsafe.StringData(src[1:]) {
			t.Errorf("%q: the value shares the source's bytes", src)
		}
	}
}

// TestOperatorChainParsesInLinearSpace: an n-operand a+b+... grows one
// argument slice. It used to copy the arguments at every operand, so a
// 16 001-term sum, a 32 KB query, took seconds and gigabytes to parse.
func TestOperatorChainParsesInLinearSpace(t *testing.T) {
	const terms = 4001
	src := strings.Repeat("a+", terms-1) + "a"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e, err := ParseAll(src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := e[0].(*expr.Normal); !ok || n.Len() != terms {
		t.Fatalf("parsed to %d arguments, want %d", e[0].(*expr.Normal).Len(), terms)
	}
	if perTerm := (after.TotalAlloc - before.TotalAlloc) / terms; perTerm > 256 {
		t.Errorf("parsing a %d-term sum allocated %d bytes a term, want at most 256", terms, perTerm)
	}
}

// TestNewSymbolDoesNotPinSource: the symbol table outlives every query, so
// the first use of a new name must not keep the source it was read from. A
// 1 MiB source holding one new name, parsed and dropped, leaves the heap
// less than 64 KiB larger once collected (the whole source stayed when the
// table kept the parser's slice).
func TestNewSymbolDoesNotPinSource(t *testing.T) {
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	func() {
		src := "pinCheckFreshName1 + 1 (* " + strings.Repeat("x", 1<<20) + " *)"
		if _, err := ParseAll(src); err != nil {
			t.Fatal(err)
		}
	}()
	if grew := int64(heap()) - int64(before); grew >= 64<<10 {
		t.Errorf("the heap grew by %d bytes after the source was dropped", grew)
	}
	if expr.Sym("pinCheckFreshName1").Name != "pinCheckFreshName1" {
		t.Fatal("the symbol lost its name")
	}
}
