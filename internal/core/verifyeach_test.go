package core_test

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"wolfc/internal/bench"
	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// exampleSrcs mirrors the examples/ programs' compiled functions: the §A.6
// addOne, the quickstart power loop, symbolic Expression arithmetic, and the
// randomwalk structural loop.
var exampleSrcs = []string{
	`Function[{Typed[arg, "MachineInteger"]}, arg + 1]`,
	`Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i = i + 1]; s]]`,
	`Function[{Typed[n, "MachineInteger"]}, n*n*n*n*n*n*n]`,
	`Function[{Typed[arg1, "Expression"], Typed[arg2, "Expression"]}, arg1 + arg2]`,
	`Function[{Typed[len, "MachineInteger"]},
		Module[{out = ConstantArray[0., {len + 1, 2}], arg = 0., x = 0., y = 0., i = 1},
			While[i <= len,
				arg = 0.5 + 0.1*i;
				x = x - Cos[arg];
				y = y + Sin[arg];
				out[[i + 1, 1]] = x;
				out[[i + 1, 2]] = y;
				i = i + 1];
			out]]`,
}

// TestVerifyEachCleanOnCorpus compiles the example sources and every
// Figure 2 kernel with between-pass SSA verification at each optimisation
// level, and lowers each for C. Zero failures required: no production pass
// may break SSA at any point in the pipeline, and no module's reference
// counts may fail to balance.
func TestVerifyEachCleanOnCorpus(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	corpus := map[string]string{}
	for i, src := range exampleSrcs {
		corpus[fmt.Sprintf("example-%d", i)] = src
	}
	for _, name := range []string{"fnv1a", "mandelbrot", "dot", "blur", "histogram"} {
		src, ok := bench.FnSource(name)
		if !ok {
			t.Fatalf("bench.FnSource(%q) missing", name)
		}
		corpus["bench-"+name] = src
	}
	for name, src := range corpus {
		for _, o := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/O%d", name, o), func(t *testing.T) {
				fn, tab, err := parser.ParseSource(name, src)
				if err != nil {
					t.Fatal(err)
				}
				c := core.NewCompiler(k)
				c.Options.OptimizationLevel = o
				ccf, err := c.FunctionCompileRequest(fn, core.CompileRequest{
					Source: tab, VerifyEach: true, Collect: true,
				})
				if err != nil {
					t.Fatalf("verify-each failed: %v", err)
				}
				if ccf.Report == nil || len(ccf.Report.Stages) == 0 {
					t.Fatal("requested report missing")
				}
				// The C lowering inserts the reference counts and refuses
				// a module whose counts do not balance on every path. It
				// checks them before it spells a native, so a module it
				// refuses for a native with no C spelling (symbolic Plus)
				// has balanced.
				if _, err := ccf.ExportString("C"); err != nil && !errors.Is(err, codegen.ErrNoCSpelling) {
					t.Fatalf("C lowering: %v", err)
				}
			})
		}
	}
}
