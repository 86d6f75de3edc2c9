package parser_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// FuzzInputFormRoundTrip: the parser never panics, and whatever it accepts
// prints in InputForm as text that reads back as the same expression. The
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
		if e, err := parser.Parse(src); err == nil {
			roundTrip(t, src, e)
		}
	})
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
