package passes_test

import (
	"errors"
	"io"
	"strings"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
)

// The reference counts InsertRefCounts places reach the C output: the C
// export of every ownership source, at every optimisation level, holds
// counts, and EmitC verified that they balance before it rendered them (the
// standalone export goes through the same EmitC). A source with a constant
// tensor, which wolfrt.h cannot spell, is refused by name after that check.
func TestCExportCountsTheOwnershipCorpus(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	for _, src := range passes.RefCountSrcs {
		for _, level := range []int{0, 1, 2} {
			c := core.NewCompiler(k)
			c.Options.OptimizationLevel = level
			ccf, err := c.FunctionCompile(parser.MustParse(src))
			if err != nil {
				t.Fatalf("O%d %s: %v", level, src, err)
			}
			out, err := ccf.ExportString("C")
			if errors.Is(err, codegen.ErrNoCSpelling) && strings.Contains(err.Error(), "constant tensor") {
				continue // refused by name, after the counts were verified
			}
			if err != nil {
				t.Fatalf("O%d %s: C export: %v", level, src, err)
			}
			if !strings.Contains(out, "wolfrt_memory_acquire(") {
				t.Errorf("O%d %s: C export holds no reference count:\n%s", level, src, out)
			}
			if _, err := ccf.ExportString("CStandalone"); err != nil {
				t.Errorf("O%d %s: standalone export: %v", level, src, err)
			}
		}
	}
}
