package types_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"wolfc/internal/core"
	"wolfc/internal/infer"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/types"
)

// TestBaselineTierCoversEveryScalarNative: the baseline tier is the closure
// backend with fusion off, so every native-backed overload over machine
// scalars that the quick annotator admits must compile there. Walk the
// standard library, call each such overload from a one-call function at
// every scalar instantiation, and accept exactly two outcomes: the quick
// annotator declined (the tiering engine then takes the full pipeline), or
// the compile succeeded. A backend error would mean the two tiers' coverage
// had drifted apart again.
func TestBaselineTierCoversEveryScalarNative(t *testing.T) {
	c := core.NewCompiler(kernel.New())
	c.Stencil = true
	env := c.TypeEnv
	compiled, declined := 0, 0
	for _, name := range env.FuncNames() {
		for _, d := range env.Lookup(name) {
			if d.Native == "" || d.Impl != nil {
				continue
			}
			for _, sig := range scalarInstances(env, d.Type) {
				if !(isScalar(sig.Ret) || sig.Ret == types.TVoid) {
					continue
				}
				var params, args []string
				for i, p := range sig.Params {
					params = append(params, fmt.Sprintf("Typed[a%d, %q]", i, p.String()))
					args = append(args, fmt.Sprintf("a%d", i))
				}
				src := fmt.Sprintf("Function[{%s}, %s[%s]]", strings.Join(params, ", "), name, strings.Join(args, ", "))
				fn, err := parser.Parse(src)
				if err != nil {
					t.Errorf("%s: %v", src, err)
					continue
				}
				switch _, err := c.FunctionCompile(fn); {
				case err == nil:
					compiled++
				case errors.Is(err, infer.ErrQuickUnsupported):
					declined++
				default:
					t.Errorf("%s (native %s): %v", src, d.Native, err)
				}
			}
		}
	}
	if compiled < 100 {
		t.Errorf("only %d scalar overloads compiled (%d declined): the walk is not reaching the standard library", compiled, declined)
	}
	t.Logf("%d scalar overload instances compiled on the baseline tier, %d declined by quick inference", compiled, declined)
}

var scalars = []types.Type{types.TInt64, types.TReal64, types.TComplex, types.TBool}

func isScalar(ty types.Type) bool {
	for _, s := range scalars {
		if ty == s {
			return true
		}
	}
	return false
}

// scalarInstances returns every instantiation of a declared type whose
// parameters are all machine scalars: the type itself when monomorphic,
// else one per assignment of scalars to its variables that satisfies the
// class qualifiers.
func scalarInstances(env *types.Env, decl types.Type) []*types.Fn {
	body, quals := types.Instantiate(decl)
	fn, ok := body.(*types.Fn)
	if !ok {
		return nil
	}
	vars := types.FreeVars(fn, types.Subst{})
	var out []*types.Fn
	var assign func(i int, s types.Subst)
	assign = func(i int, s types.Subst) {
		if i < len(vars) {
			for _, sc := range scalars {
				s[vars[i].ID] = sc
				assign(i+1, s)
			}
			delete(s, vars[i].ID)
			return
		}
		for _, q := range quals {
			if !env.MemberOf(s.Apply(q.Var), q.Class) {
				return
			}
		}
		inst := s.Apply(fn).(*types.Fn)
		for _, p := range inst.Params {
			if !isScalar(p) {
				return
			}
		}
		out = append(out, inst)
	}
	assign(0, types.Subst{})
	return out
}
