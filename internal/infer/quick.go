package infer

import (
	"errors"
	"fmt"

	"wolfc/internal/fnreg"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// ErrQuickUnsupported wraps QuickWith's one rejection (a parameter that is
// not a machine scalar: fall back to the full pipeline).
var ErrQuickUnsupported = errors.New("outside the baseline fragment")

// QuickWith types mod for the baseline configuration (tier F1.5): InferWith,
// once every parameter is known to be a machine scalar. A definition over
// lists or strings is turned away before any solving, so on its way to the
// full pipeline it pays for the solver once. Anything else outside the
// fragment is typed here and caught by the backend's scalar-only guard
// (codegen.StencilCompile).
func QuickWith(mod *wir.Module, env *types.Env, reg *fnreg.Registry) error {
	_, err := QuickCounted(mod, env, reg)
	return err
}

// QuickCounted is QuickWith that also reports the solver's counts.
func QuickCounted(mod *wir.Module, env *types.Env, reg *fnreg.Registry) (Counts, error) {
	for _, f := range mod.Funcs {
		for _, p := range f.Params {
			switch p.Ty {
			case types.TInt64, types.TReal64, types.TComplex, types.TBool:
			default:
				return Counts{}, fmt.Errorf("%w: %s: parameter %s : %v is not a machine scalar", ErrQuickUnsupported, f.Name, p.Name(), p.Ty)
			}
		}
	}
	return InferCounted(mod, env, reg)
}
