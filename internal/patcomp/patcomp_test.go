package patcomp

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
	"wolfc/internal/types"
)

var (
	tInt     = types.Type(types.TInt64)
	tReal    = types.Type(types.TReal64)
	tIntVec  = types.TensorOf(types.TInt64, 1)
	tRealVec = types.TensorOf(types.TReal64, 1)
)

const miss = "Compile`PatternMiss[0]"

// analyze defines f by defs in a fresh kernel and analyses it at kinds.
func analyze(t *testing.T, defs []string, kinds []types.Type) (*kernel.Kernel, *Def, error) {
	t.Helper()
	k := kernel.New()
	k.Out = io.Discard
	for _, d := range defs {
		if _, err := k.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	f := expr.Sym("f")
	def, err := Analyze(f, k.DownValues(f), kinds)
	return k, def, err
}

// TestAnalyze takes each shape the generated corpus mixes through Analyze and
// runs the tree it builds in the interpreter: applied to arguments of the
// kinds it was specialised for, the synthesised Function must answer what the
// kernel's own dispatch over the same rules answers, or end in the miss leaf
// exactly where the case says no compiled rule covers the arguments (the tier
// then hands the call to the interpreter).
func TestAnalyze(t *testing.T) {
	for _, c := range []struct {
		name   string
		defs   []string
		kinds  []types.Type
		calls  []string // argument lists; the tree must agree with f[...]
		misses []string // argument lists that must reach the miss leaf
		rules  int      // live rules after pruning
	}{
		{
			name:  "literal rules come before the general one",
			defs:  []string{`f[x_] := x + 1`, `f[0] = 99`, `f[13] := 40`},
			kinds: []types.Type{tInt}, calls: []string{"0", "13", "5", "-1"}, rules: 3,
		},
		{
			name:  "a real literal never equals an integer argument",
			defs:  []string{`f[2.] := 1`, `f[x_] := x`},
			kinds: []types.Type{tInt}, calls: []string{"2", "3"}, rules: 1,
		},
		{
			name:  "head restrictions prune the rules of other kinds",
			defs:  []string{`f[x_Integer] := x*6 + 3`, `f[x_Real] := x - 5.`, `f[x_] := 0`},
			kinds: []types.Type{tInt}, calls: []string{"4"}, rules: 2,
		},
		{
			name:  "the same definition specialised for reals",
			defs:  []string{`f[x_Integer] := x*6 + 3`, `f[x_Real] := x - 5.`, `f[x_] := 0`},
			kinds: []types.Type{tReal}, calls: []string{"2.5"}, rules: 2,
		},
		{
			name:  "guards on an argument and on the whole left-hand side, in rule order",
			defs:  []string{`f[x_ /; x < 7] := x*4 + 2`, `f[x_] /; x > 9 && x < 14 := 11 - x`, `f[x_] := 2 - x`},
			kinds: []types.Type{tInt}, calls: []string{"3", "7", "10", "20"}, rules: 3,
		},
		{
			name:  "only guarded rules: what no guard admits is a miss",
			defs:  []string{`f[x_Integer /; x > 10] := x - 10`},
			kinds: []types.Type{tInt}, calls: []string{"42"}, misses: []string{"3"}, rules: 1,
		},
		{
			name:  "list destructuring tests the length, then the elements",
			defs:  []string{`f[{a_, 5}] := 0 - a`, `f[{u_}] := -u`, `f[{a_ /; a > 100, b_}] := a + b`},
			kinds: []types.Type{tIntVec}, calls: []string{"{4, 5}", "{3}", "{200, 1}"}, misses: []string{"{7, 7}", "{1, 2, 3}", "{}"}, rules: 3,
		},
		{
			name:  "a list pattern is dead for a scalar argument",
			defs:  []string{`f[{a_, b_}] := a`, `f[x_] := x + 1`},
			kinds: []types.Type{tReal}, calls: []string{"1.5"}, rules: 1,
		},
		{
			name:  "a list bound whole, and its head restriction",
			defs:  []string{`f[v_List, n_Integer] := v[[n]]`},
			kinds: []types.Type{tRealVec, tInt}, calls: []string{"{1.5, 2.5}, 2"}, rules: 1,
		},
		{
			name:  "a repeated variable is an equality test",
			defs:  []string{`f[x_, x_] := x*2 + 1`, `f[x_, y_] := x - y`},
			kinds: []types.Type{tInt, tInt}, calls: []string{"3, 3", "3, 4"}, rules: 2,
		},
		{
			name:  "a repeated variable across kinds never matches (1 =!= 1.)",
			defs:  []string{`f[x_, x_] := x*2 + 1`, `f[x_, y_] := x - y`},
			kinds: []types.Type{tInt, tReal}, calls: []string{"1, 1."}, rules: 1,
		},
		{
			name:  "a repeated variable inside a destructured list",
			defs:  []string{`f[{a_, a_}] := a`, `f[{a_, b_}] := a - b`},
			kinds: []types.Type{tIntVec}, calls: []string{"{6, 6}", "{6, 2}"}, misses: []string{"{6}"}, rules: 2,
		},
		{
			name:  "rules of another arity are dropped",
			defs:  []string{`f[x_] := x`, `f[x_, y_] := x + y`},
			kinds: []types.Type{tInt, tInt}, calls: []string{"1, 2"}, rules: 1,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			k, def, err := analyze(t, c.defs, c.kinds)
			if err != nil {
				t.Fatalf("declined: %v", err)
			}
			if len(def.rules) != c.rules {
				t.Errorf("%d live rules, want %d", len(def.rules), c.rules)
			}
			fn := def.Synthesize()
			if got := len(fn.(*expr.Normal).Arg(1).(*expr.Normal).Args()); got != len(c.kinds) {
				t.Fatalf("synthesised %d parameters for %d kinds: %s", got, len(c.kinds), expr.InputForm(fn))
			}
			if len(def.ScanExprs()) < len(def.rules) {
				t.Errorf("ScanExprs lists %d expressions for %d live rules", len(def.ScanExprs()), len(def.rules))
			}
			tree := func(args string) string {
				out, err := k.Run(parser.MustParse("fn[" + args + "]").(*expr.Normal).WithHead(fn))
				if err != nil {
					t.Fatalf("tree on %s: %v\n%s", args, err, expr.InputForm(fn))
				}
				return expr.InputForm(out)
			}
			for _, args := range c.calls {
				want, err := k.Run(parser.MustParse("f[" + args + "]"))
				if err != nil {
					t.Fatal(err)
				}
				if got := tree(args); got != expr.InputForm(want) {
					t.Errorf("tree[%s] = %s, f[%s] = %s\n%s", args, got, args, expr.InputForm(want), expr.InputForm(fn))
				}
			}
			for _, args := range c.misses {
				if got := tree(args); got != miss {
					t.Errorf("tree[%s] = %s, want the miss leaf\n%s", args, got, expr.InputForm(fn))
				}
			}
		})
	}
}

// Declining is always safe (the symbol stays on the interpreter), and it is
// what Analyze must do outside its fragment: the error names the obstruction.
func TestAnalyzeDeclines(t *testing.T) {
	for _, c := range []struct {
		name  string
		defs  []string
		kinds []types.Type
		want  string
	}{
		{"no definition", nil, []types.Type{tInt}, "no DownValues"},
		{"a sequence pattern", []string{`f[x__] := 1`}, []types.Type{tInt}, "outside the compiled fragment"},
		{"a structural pattern (symbolic differentiation)", []string{`f[u_ + v_, x_] := f[u, x] + f[v, x]`}, []types.Type{tInt, tInt}, "outside the compiled fragment"},
		{"a nested list", []string{`f[{{a_}, b_}] := a`}, []types.Type{tIntVec}, "outside the compiled fragment"},
		{"no rule for these kinds", []string{`f[x_Real] := x`, `f[s_String] := 1`}, []types.Type{tInt}, "no rule can match"},
		{"a repeated variable bound to lists", []string{`f[x_, x_] := 1`}, []types.Type{tIntVec, tIntVec}, "bound to a list"},
		{"a dead test behind a guard", []string{`f[x_ /; x > 0, y_Real] := x`}, []types.Type{tInt, tInt}, "follows a /; guard"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, def, err := analyze(t, c.defs, c.kinds)
			if err == nil {
				t.Fatalf("accepted: %s", expr.InputForm(def.Synthesize()))
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("declined with %q, want %q", err, c.want)
			}
		})
	}
}

// rulesOf reads definitions (lhs := rhs, lhs = rhs) out of source text without
// evaluating anything, grouped by the symbol they define and ordered the way
// the kernel orders DownValues.
func rulesOf(src string) map[*expr.Symbol][]pattern.Rule {
	lines, err := parser.ParseAll(src)
	if err != nil {
		return nil
	}
	out := map[*expr.Symbol][]pattern.Rule{}
	for _, line := range lines {
		def, ok := line.(*expr.Normal)
		if !ok || def.Len() != 2 || (def.Head() != expr.SymSetDelayed && def.Head() != expr.SymSet) {
			continue
		}
		call := def.Arg(1)
		for {
			n, ok := call.(*expr.Normal)
			if !ok || n.Head() != expr.Sym("Condition") || n.Len() != 2 {
				break
			}
			call = n.Arg(1)
		}
		if n, ok := call.(*expr.Normal); ok {
			if sym, ok := n.Head().(*expr.Symbol); ok {
				out[sym] = append(out[sym], pattern.Rule{LHS: def.Arg(1), RHS: def.Arg(2)})
			}
		}
	}
	for _, rules := range out {
		pattern.SortRules(rules)
	}
	return out
}

// FuzzAnalyze feeds Analyze definitions it has never seen, at every machine
// kind. The only oracle: it never panics; it declines, or it returns a tree.
func FuzzAnalyze(f *testing.F) {
	corpus, err := os.ReadFile(filepath.Join("..", "..", "examples", "patterns", "corpus.wl"))
	if err != nil {
		f.Fatal(err)
	}
	// One seed per symbol of the generated corpus (its definitions are
	// consecutive lines), at two sketches each.
	var group []string
	flush := func() {
		if len(group) > 0 {
			f.Add(strings.Join(group, "\n"), uint8(0b00000000))
			f.Add(strings.Join(group, "\n"), uint8(0b00011011))
		}
		group = nil
	}
	for _, line := range strings.Split(string(corpus), "\n") {
		name, _, isCall := strings.Cut(line, "[")
		if !isCall || !strings.Contains(line, ":=") {
			continue
		}
		if len(group) > 0 && !strings.HasPrefix(group[0], name+"[") {
			flush()
		}
		group = append(group, line)
	}
	flush()
	f.Add("f[x__] := 1\nf[{{a_}, b_}] /; a > b := a\nf[x_, x_] := x", uint8(0b1010))

	kinds := [4]types.Type{tInt, tReal, tIntVec, tRealVec}
	f.Fuzz(func(t *testing.T, src string, sketch uint8) {
		for sym, rules := range rulesOf(src) {
			arity := 1
			if shape, ok := pattern.ClassifyRule(rules[0].LHS, sym); ok {
				arity = len(shape.Args)
			}
			ks := make([]types.Type, min(arity, 4))
			for i := range ks {
				ks[i] = kinds[sketch>>(2*i)&3]
			}
			def, err := Analyze(sym, rules, ks)
			if err != nil {
				continue
			}
			fn, ok := def.Synthesize().(*expr.Normal)
			if !ok || fn.Head() != expr.SymFunction || fn.Len() != 2 || fn.Arg(2) == nil {
				t.Fatalf("accepted %q without a tree: %v", src, fn)
			}
			if len(def.ScanExprs()) == 0 {
				t.Fatalf("accepted %q with nothing to scan for dependencies", src)
			}
		}
	})
}
