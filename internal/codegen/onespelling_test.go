package codegen

import (
	"fmt"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// TestOneSpellingPerScalarNative holds the evaluator builders as the only
// place a scalar native is written. Every native-backed overload of the
// standard library is instantiated at every atomic type its qualifiers allow;
// for each call fusibleProducer admits, assignTo must build it as a one-node
// tree, it must not be a fusion barrier, and selectNative must have no arm
// for it. The tensor loads are the declared exception: selectNative keeps
// their register-operand step.
func TestOneSpellingPerScalarNative(t *testing.T) {
	env := types.Builtin()
	admitted := map[string]int{}
	for _, name := range env.FuncNames() {
		for _, d := range env.Lookup(name) {
			if d.Native == "" || d.Impl != nil {
				continue
			}
			for _, sig := range atomicInstances(env, d.Type) {
				in := &wir.Instr{Op: wir.OpCall, Callee: name, Native: d.Native, Ty: sig.Ret}
				for i, p := range sig.Params {
					in.Args = append(in.Args, &wir.Param{Sym: expr.Sym(fmt.Sprintf("a%d", i)), Index: i, Ty: p})
				}
				if !fusibleProducer(in) {
					continue
				}
				admitted[d.Native]++
				what := fmt.Sprintf("%s %s (native %s)", name, sig, d.Native)
				g := &gen{
					prog: &Program{byName: map[string]*CFunc{}},
					fn:   &wir.Function{Name: "t"},
					cf:   &CFunc{},
					regs: map[wir.Value]reg{},
				}
				dst, err := g.regOf(in)
				if err != nil {
					t.Errorf("%s: %v", what, err)
					continue
				}
				if st, err := g.assignTo(dst, in); err != nil || st == nil {
					t.Errorf("%s: admitted by fusibleProducer but assignTo does not build it: %v", what, err)
				}
				if barrierInstr(in) {
					t.Errorf("%s: has an evaluator yet reads as a fusion barrier", what)
				}
				if isTensorLoad(d.Native) {
					continue
				}
				regs := make([]reg, len(in.Args))
				for i, a := range in.Args {
					if regs[i], err = g.regOf(a); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				if g.selectNative(d.Native, in, regs, dst) != nil {
					t.Errorf("%s: spelled twice — selectNative has an arm beside the evaluator", what)
				}
			}
		}
	}
	if len(admitted) < 90 {
		t.Errorf("only %d natives admitted: the walk is not reaching the standard library", len(admitted))
	}
	t.Logf("%d natives have an evaluator", len(admitted))
}

// atomicInstances returns every instantiation of a declared function type
// with its type variables bound to atomic types, subject to its class
// qualifiers. A variable inside a Tensor stays there, so tensor loads are
// instantiated at every element type.
func atomicInstances(env *types.Env, decl types.Type) []*types.Fn {
	atomics := []types.Type{
		types.AtomicOf("Integer8"), types.AtomicOf("Integer16"), types.AtomicOf("Integer32"), types.TInt64,
		types.AtomicOf("UnsignedInteger8"), types.AtomicOf("UnsignedInteger16"),
		types.AtomicOf("UnsignedInteger32"), types.AtomicOf("UnsignedInteger64"),
		types.TReal64, types.TComplex, types.TBool, types.TString, types.TExpr,
	}
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
			for _, a := range atomics {
				s[vars[i].ID] = a
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
		out = append(out, s.Apply(fn).(*types.Fn))
	}
	assign(0, types.Subst{})
	return out
}
