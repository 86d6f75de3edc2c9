package pattern_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/patcomp"
	"wolfc/internal/pattern"
	"wolfc/internal/types"
)

// FuzzClassifyRule feeds ClassifyRule parsed left-hand sides it has never
// seen, and patcomp.Analyze every rule it accepts, at a sketch of machine
// kinds. The oracle: neither panics, and an accepted LHS has one shape per
// argument of its call. The sketch's top bit classifies against the symbol f
// instead of the call's own head, so mismatched heads are fed too.
func FuzzClassifyRule(f *testing.F) {
	corpus, err := os.ReadFile(filepath.Join("..", "..", "examples", "patterns", "corpus.wl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(corpus), "\n") {
		if strings.Contains(line, ":=") {
			f.Add(line, uint8(0b00000000))
			f.Add(line, uint8(0b00011011))
		}
	}
	f.Add("f[x__, {{a_}, b_}, y_ /; y > 0, 2.5] /; x > 1 := 1", uint8(0b00100110))
	f.Add("g[x_] /; x > 1 /; x < 9", uint8(0b10000000))

	symCondition := expr.Sym("Condition")
	kinds := [4]types.Type{types.TInt64, types.TReal64, types.TensorOf(types.TInt64, 1), types.TensorOf(types.TReal64, 1)}
	f.Fuzz(func(t *testing.T, src string, sketch uint8) {
		e, err := parser.Parse(src)
		if err != nil {
			return
		}
		lhs, rhs := e, expr.Expr(expr.FromInt64(0))
		if def, ok := e.(*expr.Normal); ok && def.Len() == 2 && (def.Head() == expr.SymSetDelayed || def.Head() == expr.SymSet) {
			lhs, rhs = def.Arg(1), def.Arg(2)
		}
		call := lhs
		for {
			c, ok := expr.IsNormalN(call, symCondition, 2)
			if !ok {
				break
			}
			call = c.Arg(1)
		}
		head := expr.Sym("f")
		if n, ok := call.(*expr.Normal); ok && sketch&0x80 == 0 {
			if s, ok := n.Head().(*expr.Symbol); ok {
				head = s
			}
		}
		shape, ok := pattern.ClassifyRule(lhs, head)
		if !ok {
			return
		}
		if n := call.(*expr.Normal); len(shape.Args) != n.Len() {
			t.Fatalf("%q: %d shapes for %d arguments", src, len(shape.Args), n.Len())
		}
		ks := make([]types.Type, min(len(shape.Args), 3))
		for i := range ks {
			ks[i] = kinds[sketch>>(2*i)&3]
		}
		patcomp.Analyze(head, []pattern.Rule{{LHS: lhs, RHS: rhs}}, ks)
	})
}
