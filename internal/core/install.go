package core

import (
	"fmt"
	"os"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
)

// Kernel integration (F1): FunctionCompile becomes a regular function of
// the language, and CompiledCodeFunction objects apply like any function.

// Install registers FunctionCompile and the CompiledCodeFunction applier in
// the kernel, returning the compiler instance used (so callers can extend
// its environments). Compiles resolve against the default function
// registry; engines use InstallWith.
func Install(k *kernel.Kernel) *Compiler {
	return InstallWith(k, nil)
}

// InstallWith is Install with an explicit function-registry namespace (nil
// = the process-wide default), so the kernel's FunctionCompile builtin
// compiles inside the owning engine's namespace.
func InstallWith(k *kernel.Kernel, reg *fnreg.Registry) *Compiler {
	c := NewCompilerWith(k, reg)
	// The CompiledCodeFunction objects this kernel has handed out, by the id
	// their expression form carries. The table belongs to this installation:
	// only the builtins below touch it, on the kernel's one evaluating
	// goroutine, and it dies with the kernel. An id minted elsewhere (another
	// engine, a serialised session) is unknown here and takes the stale-object
	// path in the applier.
	symCCF := expr.Sym("CompiledCodeFunction")
	objects := map[int64]*CompiledCodeFunction{}
	object := func(ccf *CompiledCodeFunction, source expr.Expr) expr.Expr {
		id := int64(len(objects) + 1)
		objects[id] = ccf
		return expr.New(symCCF, expr.FromInt64(id), source)
	}
	// compiled resolves CompiledCodeFunction[id, source] to its function, and
	// compiles anything else (or an unknown id) as a function expression.
	compiled := func(target expr.Expr) (*CompiledCodeFunction, error) {
		if obj, isObj := expr.IsNormalN(target, symCCF, 2); isObj {
			if id, isInt := obj.Arg(1).(*expr.Integer); isInt && id.IsMachine() {
				if ccf := objects[id.Int64()]; ccf != nil {
					return ccf, nil
				}
			}
		}
		return c.FunctionCompile(target)
	}
	k.Register("FunctionCompile", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() < 1 {
			return n, false
		}
		// Route through the process-wide cache so repeated FunctionCompile
		// of the same source under unchanged environments is free.
		ccf, err := c.FunctionCompileCached(n.Arg(1))
		if err != nil {
			fmt.Fprintf(k.Out, "FunctionCompile::cmperr: %v\n", err)
			return expr.SymFailed, true
		}
		return object(ccf, n.Arg(1)), true
	})
	// §A.6's inspection functions, usable inside the language.
	k.Register("CompileToAST", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		out, err := c.ExpandAST(n.Arg(1))
		if err != nil {
			fmt.Fprintf(k.Out, "CompileToAST::err: %v\n", err)
			return expr.SymFailed, true
		}
		return expr.NewS("Hold", out), true
	})
	k.Register("CompileToIR", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() < 1 {
			return n, false
		}
		// CompileToIR[fn] gives TWIR; CompileToIR[fn, "OptimizationLevel" -> None]
		// (any second argument) gives the untyped WIR, as in the artifact.
		if n.Len() >= 2 {
			mod, err := c.BuildWIR(n.Arg(1))
			if err != nil {
				fmt.Fprintf(k.Out, "CompileToIR::err: %v\n", err)
				return expr.SymFailed, true
			}
			return expr.FromString(mod.String()), true
		}
		// The default form shows the fully resolved, optimised TWIR, as
		// the artifact's CompileToIR[addOne] does.
		ccf, err := c.FunctionCompile(n.Arg(1))
		if err != nil {
			fmt.Fprintf(k.Out, "CompileToIR::err: %v\n", err)
			return expr.SymFailed, true
		}
		return expr.FromString(ccf.Module.String()), true
	})
	k.Register("FunctionCompileExportString", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 2 {
			return n, false
		}
		format, ok := n.Arg(2).(*expr.String)
		if !ok {
			return n, false
		}
		// Accept either a function expression or a CompiledCodeFunction.
		ccf, err := compiled(n.Arg(1))
		if err != nil {
			fmt.Fprintf(k.Out, "FunctionCompileExportString::err: %v\n", err)
			return expr.SymFailed, true
		}
		out, err := ccf.ExportString(format.V)
		if err != nil {
			fmt.Fprintf(k.Out, "FunctionCompileExportString::err: %v\n", err)
			return expr.SymFailed, true
		}
		return expr.FromString(out), true
	})
	// §4.6: ahead-of-time library export and reload, by file path.
	k.Register("FunctionCompileExportLibrary", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 2 {
			return n, false
		}
		path, ok := n.Arg(1).(*expr.String)
		if !ok {
			return n, false
		}
		ccf, err := compiled(n.Arg(2))
		if err != nil {
			fmt.Fprintf(k.Out, "FunctionCompileExportLibrary::err: %v\n", err)
			return expr.SymFailed, true
		}
		f, err := os.Create(path.V)
		if err != nil {
			fmt.Fprintf(k.Out, "FunctionCompileExportLibrary::err: %v\n", err)
			return expr.SymFailed, true
		}
		defer f.Close()
		if err := ccf.ExportLibrary(f); err != nil {
			fmt.Fprintf(k.Out, "FunctionCompileExportLibrary::err: %v\n", err)
			return expr.SymFailed, true
		}
		return path, true
	})
	k.Register("LibraryFunctionLoad", 0, func(k *kernel.Kernel, n *expr.Normal) (expr.Expr, bool) {
		if n.Len() != 1 {
			return n, false
		}
		path, ok := n.Arg(1).(*expr.String)
		if !ok {
			return n, false
		}
		f, err := os.Open(path.V)
		if err != nil {
			fmt.Fprintf(k.Out, "LibraryFunctionLoad::err: %v\n", err)
			return expr.SymFailed, true
		}
		defer f.Close()
		ccf, err := LoadCompiledLibrary(c, f, false)
		if err != nil {
			fmt.Fprintf(k.Out, "LibraryFunctionLoad::err: %v\n", err)
			return expr.SymFailed, true
		}
		return object(ccf, expr.FromString(path.V)), true
	})
	k.RegisterApplier("CompiledCodeFunction", func(k *kernel.Kernel, head *expr.Normal, args []expr.Expr) (expr.Expr, bool) {
		if head.Len() != 2 {
			return nil, false
		}
		idE, ok := head.Arg(1).(*expr.Integer)
		if !ok || !idE.IsMachine() {
			return nil, false
		}
		ccf := objects[idE.Int64()]
		if ccf == nil {
			// Stale or foreign object (from a serialised session, or another
			// engine's id): evaluate the stored source instead.
			return k.Eval(expr.New(head.Arg(2), args...)), true
		}
		out, err := ccf.Apply(args)
		if err != nil {
			fmt.Fprintf(k.Out, "CompiledCodeFunction::err: %v\n", err)
			return expr.SymFailed, true
		}
		return out, true
	})
	return c
}
