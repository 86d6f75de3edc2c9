// Library export (F10, §4.6): compile once, export the compiled module to a
// file, reload it in a fresh session without the source, and run it — plus
// the C translation written next to it. In standalone mode the reloaded
// code has interpreter integration and abortability disabled, as the paper
// describes.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

func main() {
	dir, err := os.MkdirTemp("", "wolfc-export")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Session 1: compile and export.
	k1 := kernel.New()
	c1 := core.NewCompiler(k1)
	src := `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1},
			While[i <= n, s = s + i*i; i = i + 1];
			s]]`
	ccf, err := c1.FunctionCompile(parser.MustParse(src))
	if err != nil {
		log.Fatal(err)
	}

	libPath := filepath.Join(dir, "sumsq.wclib")
	var buf bytes.Buffer
	if err := ccf.ExportLibrary(&buf); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(libPath, buf.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FunctionCompileExportLibrary -> %s (%d bytes of typed IR)\n",
		filepath.Base(libPath), buf.Len())

	cSrc, err := ccf.ExportString("C")
	if err != nil {
		log.Fatal(err)
	}
	cPath := filepath.Join(dir, "sumsq.c")
	if err := os.WriteFile(cPath, []byte(cSrc), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FunctionCompileExportString[..., \"C\"] -> %s (%d bytes)\n",
		filepath.Base(cPath), len(cSrc))

	// "CStandalone" inlines the wolfrt runtime so the file compiles alone:
	//	cc sumsq_standalone.c -lm
	// (after appending a main() that calls Main).
	cFull, err := ccf.ExportString("CStandalone")
	if err != nil {
		log.Fatal(err)
	}
	cFullPath := filepath.Join(dir, "sumsq_standalone.c")
	if err := os.WriteFile(cFullPath, []byte(cFull), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FunctionCompileExportString[..., \"CStandalone\"] -> %s (self-contained, %d bytes)\n\n",
		filepath.Base(cFullPath), len(cFull))

	// Session 2: a completely fresh compiler loads the library — no source
	// available — and runs it (LibraryFunctionLoad).
	data, err := os.ReadFile(libPath)
	if err != nil {
		log.Fatal(err)
	}
	k2 := kernel.New()
	c2 := core.NewCompiler(k2)
	loaded, err := core.LoadCompiledLibrary(c2, bytes.NewReader(data), true /* standalone */)
	if err != nil {
		log.Fatal(err)
	}
	out, err := loaded.Apply([]expr.Expr{expr.FromInt64(100)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LibraryFunctionLoad + call: sumsq[100] = %s (expected 338350)\n",
		expr.InputForm(out))
	fmt.Println("standalone mode: engine-dependent features (aborts, KernelFunction) disabled")
}
