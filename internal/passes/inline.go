package passes

import (
	"slices"

	"wolfc/internal/expr"
	"wolfc/internal/wir"
)

// Inline splices resolved direct calls into their callers (§4.5: "A
// function is inlined at this stage if it has been marked by users to be
// forcibly inlined"; §6 attributes much of the new compiler's advantage on
// tight loops to inlining). policy is "all" or "auto" (size-bounded).
// Reports whether any call was inlined.
func Inline(mod *wir.Module, policy string) bool {
	did := false
	if policy == "none" {
		return false
	}
	const (
		maxBlocks = 12
		maxInstrs = 80
	)
	const maxPerFunction = 200 // explosion guard
	for _, f := range mod.Funcs {
		var sub wir.Subst
		budget := maxPerFunction
		for again := true; again && budget > 0; {
			again = false
		scan:
			for _, b := range f.Blocks {
				for ii, in := range b.Instrs {
					if in.Op != wir.OpCall || in.ResolvedFn == nil {
						continue
					}
					callee := in.ResolvedFn
					if callee == f || callsSelf(callee) {
						continue
					}
					if policy == "auto" && !smallEnough(callee, maxBlocks, maxInstrs) {
						if forced, ok := callee.Props["inline"]; !ok || forced != true {
							continue
						}
					}
					if len(in.Args) != len(callee.Params) {
						continue // arity mismatch would be a resolution bug
					}
					inlineAt(f, b, ii, in, callee, &sub)
					did = true
					budget--
					again = true
					break scan // block layout changed; rescan
				}
			}
		}
		sub.Apply(f)
	}
	return did
}

func callsSelf(f *wir.Function) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == wir.OpCall && in.ResolvedFn == f {
				return true
			}
		}
	}
	return false
}

func smallEnough(f *wir.Function, maxBlocks, maxInstrs int) bool {
	if len(f.Blocks) > maxBlocks {
		return false
	}
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs) + len(b.Phis)
	}
	return n <= maxInstrs
}

// inlineAt splices callee at instruction index idx of block b (the call
// instruction itself), rewriting the caller CFG:
//
//	b:  [head instrs] [call] [tail instrs] [term]
//
// becomes
//
//	b:    [head instrs] Jump callee-entry'
//	...cloned callee blocks, Returns become Jumps to cont...
//	cont: phi(returned values) [tail instrs] [term]
//
// The call's uses read its result through sub.
func inlineAt(caller *wir.Function, b *wir.Block, idx int, call *wir.Instr, callee *wir.Function, sub *wir.Subst) {
	cont := caller.NewBlock(b.Label + "_inl_cont")
	// Move the tail into cont.
	tail := append([]*wir.Instr{}, b.Instrs[idx+1:]...)
	b.Instrs = b.Instrs[:idx]
	for _, t := range tail {
		t.Block = cont
	}
	cont.Instrs = tail
	// Successors' pred lists must now point at cont instead of b.
	if term := cont.Term(); term != nil {
		for _, s := range term.Targets {
			if i := s.PredIndex(b); i >= 0 {
				s.Preds[i] = cont
			}
		}
	}

	// Clone the callee.
	id := nextID(caller)
	blockMap := map[*wir.Block]*wir.Block{}
	valueMap := map[wir.Value]wir.Value{}
	for i, p := range callee.Params {
		valueMap[p] = call.Args[i]
	}
	for _, cb := range callee.Blocks {
		nb := caller.NewBlock(callee.Name + "_" + cb.Label)
		nb.AbortInhibit = cb.AbortInhibit
		blockMap[cb] = nb
	}
	remap := func(v wir.Value) wir.Value {
		if nv, ok := valueMap[v]; ok {
			return nv
		}
		if c, ok := v.(*wir.Const); ok {
			// Clone constants so later type/pass mutations stay local.
			return &wir.Const{Expr: c.Expr, Ty: c.Ty}
		}
		return v
	}
	type pendingRet struct {
		from *wir.Block
		val  wir.Value
	}
	var rets []pendingRet

	cloneInstr := func(in *wir.Instr, nb *wir.Block) *wir.Instr {
		ni := &wir.Instr{
			IDNum:      id,
			Op:         in.Op,
			Callee:     in.Callee,
			Native:     in.Native,
			ResolvedFn: in.ResolvedFn,
			Ty:         in.Ty,
			Block:      nb,
			Targets:    append([]*wir.Block{}, in.Targets...),
		}
		ni.Props = slices.Clone(in.Props)
		ni.Args = make([]wir.Value, len(in.Args))
		for i, a := range in.Args {
			ni.Args[i] = a // remapped in a second pass
		}
		id++
		valueMap[in] = ni
		return ni
	}

	// First pass: clone structure.
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, phi := range cb.Phis {
			np := cloneInstr(phi, nb)
			nb.Phis = append(nb.Phis, np)
		}
		for _, in := range cb.Instrs {
			ni := cloneInstr(in, nb)
			nb.Instrs = append(nb.Instrs, ni)
		}
		for _, p := range cb.Preds {
			nb.Preds = append(nb.Preds, blockMap[p])
		}
	}
	// Second pass: remap operands and targets; rewrite returns.
	for _, cb := range callee.Blocks {
		nb := blockMap[cb]
		for _, phi := range nb.Phis {
			for i, a := range phi.Args {
				phi.Args[i] = remap(a)
			}
		}
		for _, in := range nb.Instrs {
			for i, a := range in.Args {
				in.Args[i] = remap(a)
			}
			if len(in.Targets) > 0 {
				nt := make([]*wir.Block, len(in.Targets))
				for i, t := range in.Targets {
					nt[i] = blockMap[t]
				}
				in.Targets = nt
			}
		}
		if term := nb.Term(); term != nil && term.Op == wir.OpReturn {
			var rv wir.Value
			if len(term.Args) == 1 {
				rv = term.Args[0]
			}
			term.Op = wir.OpBranch
			term.Args = nil
			term.Targets = []*wir.Block{cont}
			cont.Preds = append(cont.Preds, nb)
			rets = append(rets, pendingRet{from: nb, val: rv})
		}
	}

	// Jump from the head into the cloned entry.
	entryClone := blockMap[callee.Entry()]
	jmp := &wir.Instr{IDNum: id, Op: wir.OpBranch, Targets: []*wir.Block{entryClone}, Block: b}
	b.Instrs = append(b.Instrs, jmp)
	entryClone.Preds = append(entryClone.Preds, b)

	// Replace the call's value.
	var result wir.Value
	switch len(rets) {
	case 0:
		result = &wir.Const{Expr: expr.SymNull, Ty: call.Ty}
	case 1:
		result = rets[0].val
	default:
		phi := &wir.Instr{IDNum: id + 1, Op: wir.OpPhi, Ty: call.Ty, Block: cont}
		for _, r := range rets {
			v := r.val
			if v == nil {
				v = &wir.Const{Expr: expr.SymNull, Ty: call.Ty}
			}
			phi.Args = append(phi.Args, v)
		}
		cont.Phis = append(cont.Phis, phi)
		result = phi
	}
	if result == nil {
		result = &wir.Const{Expr: expr.SymNull, Ty: call.Ty}
	}
	sub.Replace(call, result)
}

func nextID(f *wir.Function) int {
	n := 0
	f.Each(func(in *wir.Instr) { n = max(n, in.IDNum) })
	return n + 1
}
