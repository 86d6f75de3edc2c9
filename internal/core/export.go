package core

import (
	"fmt"
	"io"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
)

// Export paths (F4/F10): multiple backends behind one entry point, plus
// binary library export/reload for ahead-of-time compilation.

// ExportString renders the compiled function for an external target, the
// analogue of FunctionCompileExportString (paper §A.6):
//
//	"C"           — standalone C source (the C/C++ prototype backend, §4.6)
//	"CStandalone" — the same C source with the wolfrt runtime inlined, a
//	                single self-contained translation unit a C compiler can
//	                build directly (link with -lm)
//	"TWIR"        — the typed IR textual form
//	"Regions"     — the closure backend's region tree
//	"AST"         — the macro-expanded AST in FullForm
func (ccf *CompiledCodeFunction) ExportString(format string) (string, error) {
	if len(ccf.RegDeps) > 0 && format != "TWIR" && format != "AST" && format != "Regions" {
		return "", fmt.Errorf("export: function calls process-registry entries (%v); registry calls are process-local and cannot be exported", ccf.RegDeps)
	}
	switch format {
	case "C":
		return codegen.EmitC(ccf.Module, ccf.compiler.TypeEnv)
	case "CStandalone":
		src, err := codegen.EmitC(ccf.Module, ccf.compiler.TypeEnv)
		if err != nil {
			return "", err
		}
		return codegen.InlineCRuntime(src), nil
	case "TWIR":
		return ccf.Module.String(), nil
	case "Regions":
		// The region tree the closure backend runs this module as, under the
		// compiler's options: with fusion off it has no sum nodes.
		return codegen.Regions(ccf.Module, ccf.compiler.backendOptions())
	case "AST":
		out, err := ccf.compiler.ExpandAST(ccf.Source)
		if err != nil {
			return "", err
		}
		return expr.FullForm(out), nil
	}
	return "", fmt.Errorf("export: unknown format %q (want C, CStandalone, TWIR, Regions, or AST)", format)
}

// ExportLibrary writes the compiled function's typed module to w — the
// FunctionCompileExportLibrary path (F10). The artifact can be reloaded
// with LoadCompiledLibrary without access to the source.
func (ccf *CompiledCodeFunction) ExportLibrary(w io.Writer) error {
	if len(ccf.RegDeps) > 0 {
		return fmt.Errorf("export: function calls process-registry entries (%v); registry calls are process-local and cannot be exported", ccf.RegDeps)
	}
	return codegen.Marshal(w, ccf.Module)
}

// LoadCompiledLibrary reads a library written by ExportLibrary and
// regenerates executable code for it (LibraryFunctionLoad). standalone
// disables engine-dependent features — interpreter integration and
// abortability — as the paper describes for standalone mode (§4.6).
func LoadCompiledLibrary(c *Compiler, r io.Reader, standalone bool) (*CompiledCodeFunction, error) {
	// The loading compiler's backend options apply: the module is typed IR,
	// and code generation happens here, in this process.
	ccf, err := c.load(r, nil, "", "", nil)
	if err != nil {
		return nil, err
	}
	ccf.Standalone = standalone
	return ccf, nil
}
