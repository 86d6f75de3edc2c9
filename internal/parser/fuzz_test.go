package parser_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/testcorpus"
)

// roundTrip fails t unless e, which src parsed to, prints in InputForm as
// text that parses back to an expression SameQ to e.
func roundTrip(t *testing.T, src string, e expr.Expr) {
	t.Helper()
	printed := expr.InputForm(e)
	back, err := parser.Parse(printed)
	if err != nil {
		t.Fatalf("%q parses to %s, whose InputForm %q does not parse: %v", src, expr.FullForm(e), printed, err)
	}
	if !expr.SameQ(back, e) {
		t.Fatalf("%q parses to %s, whose InputForm %q reads back as %s", src, expr.FullForm(e), printed, expr.FullForm(back))
	}
}

// FuzzInputFormRoundTrip: the parser never panics, parses with and without
// a span table alike (sameParse), and whatever it accepts prints in
// InputForm as text that reads back as the same expression. The
// seeds are every line of the two tiering corpora and every source of the
// test corpus. Run it with
//
//	go test -run '^$' -fuzz FuzzInputFormRoundTrip -fuzztime 60s ./internal/parser
func FuzzInputFormRoundTrip(f *testing.F) {
	for _, dir := range []string{"patterns", "autocompile"} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", dir, "corpus.wl"))
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			f.Add(line)
		}
	}
	for _, e := range testcorpus.All(f) {
		for _, fn := range e.Fns {
			f.Add(expr.InputForm(fn.Fn))
		}
	}
	for _, src := range roundTripRows {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sameParse(t, src)
		if e, err := parser.Parse(src); err == nil {
			roundTrip(t, src, e)
		}
	})
}

// sameParse fails t unless the parses that keep no span table (Parse,
// ParseAll) and the ones that do (ParseSource, ParseAllSource) agree on
// src: the same expressions in InputForm, or the same error at the same
// position.
func sameParse(t *testing.T, src string) {
	t.Helper()
	plain, errPlain := parser.ParseAll(src)
	spanned, _, errSpanned := parser.ParseAllSource("", src)
	sameError(t, src, "ParseAll", errPlain, errSpanned)
	if len(plain) != len(spanned) {
		t.Fatalf("%q: ParseAll gives %d expressions, ParseAllSource %d", src, len(plain), len(spanned))
	}
	for i := range plain {
		if a, b := expr.InputForm(plain[i]), expr.InputForm(spanned[i]); a != b {
			t.Fatalf("%q: expression %d is %s from ParseAll, %s from ParseAllSource", src, i+1, a, b)
		}
	}
	one, errOne := parser.Parse(src)
	oneSpanned, _, errOneSpanned := parser.ParseSource("", src)
	sameError(t, src, "Parse", errOne, errOneSpanned)
	if errOne == nil && expr.InputForm(one) != expr.InputForm(oneSpanned) {
		t.Fatalf("%q: Parse gives %s, ParseSource %s", src, expr.InputForm(one), expr.InputForm(oneSpanned))
	}
}

// sameError fails t unless a and b, the errors of fn and of its span-table
// twin, are both nil or carry the same text and position.
func sameError(t *testing.T, src, fn string, a, b error) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("%q: %s error %v, with a span table %v", src, fn, a, b)
	}
	if a == nil {
		return
	}
	var da, db *diag.Diagnostic
	if !errors.As(a, &da) || !errors.As(b, &db) {
		t.Fatalf("%q: %s errors %v and %v are not diagnostics", src, fn, a, b)
	}
	if a.Error() != b.Error() || da.Pos != db.Pos {
		t.Fatalf("%q: %s error %q at %v, with a span table %q at %v", src, fn, a, da.Pos, b, db.Pos)
	}
}

// TestSpanTableChangesNoParse runs sameParse over the parser's table rows,
// the test corpus, the tiering corpora (each whole and line by line) and
// the benchmark's programs.
func TestSpanTableChangesNoParse(t *testing.T) {
	srcs := append(parser.RowSources(), roundTripRows...)
	for _, e := range testcorpus.All(t) {
		for _, fn := range e.Fns {
			srcs = append(srcs, expr.InputForm(fn.Fn))
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "corpus.wl"))
	if err != nil {
		t.Fatal(err)
	}
	programs, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "programs", "*.wl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(programs) == 0 {
		t.Fatalf("found %d corpora and %d benchmark programs", len(files), len(programs))
	}
	for _, path := range append(files, programs...) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
		srcs = append(srcs, strings.Split(string(src), "\n")...)
	}
	for _, src := range srcs {
		sameParse(t, src)
	}
}

// roundTripRows are inputs whose InputForm did not read back: each was a bug
// in the printer, fixed, and is kept here.
var roundTripRows = []string{
	"f[a___Integer, b_]", // printed aBlankSequence[Integer]
	"__h",                // printed BlankSequence[h]
	"___",
	"-(-x)", // printed --x, a decrement
	"-(-(-x))",
	"a*(!b)*c", // printed a*!b*c, which is a*Not[b*c]
	"(-10)[0]", // printed -10[0], which is Minus[10[0]]
	"(-1)^2",   // printed -1^2, which is Minus[1^2]
	"(-1.5)[[1]]",
}

func TestInputFormRoundTripRows(t *testing.T) {
	for _, src := range roundTripRows {
		e, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		roundTrip(t, src, e)
	}
}
