package core

import (
	"io"
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// The §A.6 session functions, driven exactly as the artifact appendix does.
func TestArtifactSessionFunctions(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	run := func(src string) expr.Expr {
		out, err := k.Run(parser.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return out
	}

	// addOne = Function[...]; CompileToAST[addOne]
	run(`addOne = Function[{Typed[arg, "MachineInteger"]}, arg + 1]`)
	ast := run(`CompileToAST[addOne]`)
	if expr.FullForm(ast) != `Hold[Function[List[Typed[arg, "MachineInteger"]], Plus[arg, 1]]]` {
		t.Fatalf("CompileToAST = %s", expr.FullForm(ast))
	}

	// CompileToIR[addOne] — typed; second argument form — untyped.
	twir := run(`CompileToIR[addOne]`)
	st, ok := twir.(*expr.String)
	if !ok || !strings.Contains(st.V, "Integer64") || !strings.Contains(st.V, "binary_plus") {
		t.Fatalf("CompileToIR = %s", expr.InputForm(twir))
	}
	wir := run(`CompileToIR[addOne, "OptimizationLevel" -> None]`)
	sw, ok := wir.(*expr.String)
	if !ok || strings.Contains(sw.V, "Integer64") || !strings.Contains(sw.V, "Call Plus") {
		t.Fatalf("untyped CompileToIR = %s", expr.InputForm(wir))
	}

	// FunctionCompileExportString[addOne, "C"], and on a compiled object.
	cSrc := run(`FunctionCompileExportString[addOne, "C"]`)
	if sc, ok := cSrc.(*expr.String); !ok || !strings.Contains(sc.V, "int64_t Main") {
		t.Fatalf("C export = %s", expr.InputForm(cSrc))
	}
	run(`cf = FunctionCompile[addOne]`)
	var log strings.Builder
	k.Out = &log
	if wvm := run(`FunctionCompileExportString[cf, "WVM"]`); wvm != expr.SymFailed {
		t.Fatalf("WVM export = %s, want $Failed", expr.InputForm(wvm))
	}
	if !strings.Contains(log.String(), `unknown format "WVM" (want C, CStandalone, TWIR, Regions, or AST)`) {
		t.Fatalf("WVM export message = %q", log.String())
	}
}

func TestInLanguageLibraryExportLoad(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	dir := t.TempDir()
	lib := dir + "/f.wclib"
	out, err := k.Run(parser.MustParse(
		`FunctionCompileExportLibrary["` + lib + `", Function[{Typed[n, "MachineInteger"]}, n*n + 1]]`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.(*expr.String); !ok {
		t.Fatalf("export returned %s", expr.InputForm(out))
	}
	got, err := k.Run(parser.MustParse(
		`lf = LibraryFunctionLoad["` + lib + `"]; lf[6]`))
	if err != nil {
		t.Fatal(err)
	}
	if expr.InputForm(got) != "37" {
		t.Fatalf("loaded lf[6] = %s", expr.InputForm(got))
	}
}
