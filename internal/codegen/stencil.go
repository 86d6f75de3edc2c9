// The baseline tier's backend (F1.5). Copy-and-patch (Xu & Kjolstad 2021)
// gets its compile-latency win in the code generator, and so does this tier:
// the module is typed by the same solver as the full pipeline, then no
// function resolution and no pass but abort checks run, and code generation
// is the ordinary closure backend with fusion off — each instruction a
// one-node tree of the scalar evaluators, its frame slots patched in. The
// baseline tier covers exactly the natives buildEval{I,F,B,C} implement, and
// a native added there lands in both tiers at once.
package codegen

import (
	"fmt"

	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// StencilCompile generates unfused closure code for a typed module whose
// every value is a machine scalar, and rejects any other module: callers
// fall back to the full pipeline or stay on the interpreter.
func StencilCompile(mod *wir.Module) (*Program, error) {
	if err := scalarOnly(mod); err != nil {
		return nil, err
	}
	return CompileWithOptions(mod, CompileOptions{FuseLevel: FuseOff})
}

// scalarOnly is the one definition of the baseline fragment: it rejects a
// module that holds an object-kinded value anywhere. The baseline
// configuration inserts no copies, so a tensor, string, expression or
// function value must be a compile error, never code.
// Inference only turns away non-scalar parameters; a list built, a string
// printed or a kernel escape inside a scalar function is typed there and
// caught here, as is a module decoded from the artifact store.
func scalarOnly(mod *wir.Module) error {
	if !mod.Typed {
		return fmt.Errorf("stencil: module is untyped; run inference first")
	}
	scalar := func(t types.Type) bool { return t != nil && runtime.KindOf(t) != runtime.KObj }
	reject := func(f *wir.Function, v wir.Value) error {
		return fmt.Errorf("stencil: %s: %s : %v is not a machine scalar", f.Name, v.Name(), v.Type())
	}
	// Abort checks and terminators carry no type, so a definition may be
	// untyped; one that is used as a value fails its user's operand test.
	check := func(f *wir.Function, in *wir.Instr) error {
		if in.Ty != nil && !scalar(in.Ty) {
			return reject(f, in)
		}
		for _, a := range in.Args {
			if !scalar(a.Type()) {
				return reject(f, a)
			}
		}
		return nil
	}
	for _, f := range mod.Funcs {
		for _, p := range f.Params {
			if !scalar(p.Ty) {
				return reject(f, p)
			}
		}
		for _, b := range f.Blocks {
			for _, phi := range b.Phis {
				if err := check(f, phi); err != nil {
					return err
				}
			}
			for _, in := range b.Instrs {
				if err := check(f, in); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
