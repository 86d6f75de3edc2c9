package passes

import (
	"slices"

	"wolfc/internal/expr"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// FlattenCond performs speculative boolean if-conversion on the diamonds
// that short-circuit And/Or lowering produces:
//
//	P: ... Branch c ? T : E
//	T: <pure, never-throwing instrs>; Jump J
//	E: Jump J
//	J: r = Phi [v, T] [False, E]; ...
//
// When one arm is empty and feeds the phi a boolean constant, the diamond
// computes a boolean connective: the compute arm is speculated into P and
// the phi is replaced by an eager and/or (with a not where the constant
// demands it), leaving P to jump straight to J. FuseBlocks then merges the
// seam, so a loop condition like i < n && x*x < 4. collapses into a single
// header block the backend can fuse into one superinstruction.
//
// Only applies when every instruction in the compute arm is hoistable
// (pure and never throwing — the same predicate LICM uses to license
// speculation), both arms have P as their only predecessor, and J joins
// exactly those two arms.
func FlattenCond(f *wir.Function) bool {
	for _, p := range f.Blocks {
		t := p.Term()
		if t == nil || t.Op != wir.OpCondBranch {
			continue
		}
		then, els := t.Targets[0], t.Targets[1]
		if then == els || then == p || els == p {
			continue
		}
		j := soleJump(then)
		if j == nil || j != soleJump(els) || len(j.Preds) != 2 || j == p {
			continue
		}
		// One arm must be empty; the other is the compute arm.
		var comp, empty *wir.Block
		switch {
		case len(els.Instrs) == 1:
			comp, empty = then, els
		case len(then.Instrs) == 1:
			comp, empty = els, then
		default:
			continue
		}
		if len(comp.Phis) != 0 || len(empty.Phis) != 0 ||
			!solePred(comp, p) || !solePred(empty, p) {
			continue
		}
		speculatable := true
		for _, in := range comp.Instrs[:len(comp.Instrs)-1] {
			if !hoistable(in) {
				speculatable = false
				break
			}
		}
		if !speculatable {
			continue
		}
		compIdx, emptyIdx := 0, 1
		if j.Preds[0] == empty {
			compIdx, emptyIdx = 1, 0
		}
		// Every phi in J must see a boolean constant on the empty edge.
		type rewrite struct {
			phi    *wir.Instr
			val    wir.Value // compute-edge value
			konst  bool      // empty-edge constant
			onTrue bool      // the empty edge is the then (c true) edge
		}
		var rws []rewrite
		ok := true
		for _, phi := range j.Phis {
			if !types.Equal(phi.Ty, types.TBool) {
				ok = false
				break
			}
			c, isConst := phi.Args[emptyIdx].(*wir.Const)
			if !isConst {
				ok = false
				break
			}
			v, isBool := expr.TruthValue(c.Expr)
			if !isBool {
				ok = false
				break
			}
			rws = append(rws, rewrite{phi, phi.Args[compIdx], v, empty == then})
		}
		if !ok {
			continue
		}
		// Speculate the compute arm into P, ahead of its terminator.
		cond := t.Args[0]
		var sub wir.Subst
		id := nextID(f)
		head := p.Instrs[:len(p.Instrs)-1]
		for _, in := range comp.Instrs[:len(comp.Instrs)-1] {
			in.Block = p
			head = append(head, in)
		}
		// c negated when the constant sits on an edge that makes the
		// connective read "not c": Phi[v, then][True, else] selects v when
		// c holds and True otherwise, i.e. or[not c, v].
		var notC wir.Value
		negated := func() wir.Value {
			if notC == nil {
				n := &wir.Instr{
					IDNum: id, Op: wir.OpCall, Callee: "Native`Not",
					Native: "not", Ty: types.TBool, Block: p,
					Args: []wir.Value{cond},
				}
				id++
				head = append(head, n)
				notC = n
			}
			return notC
		}
		for _, rw := range rws {
			c := cond
			native, callee := "and", "Native`And"
			switch {
			case rw.onTrue && rw.konst: // c ? True : v  =  or[c, v]
				native, callee = "or", "Native`Or"
			case rw.onTrue && !rw.konst: // c ? False : v  =  and[not c, v]
				c = negated()
			case !rw.onTrue && rw.konst: // c ? v : True  =  or[not c, v]
				native, callee = "or", "Native`Or"
				c = negated()
			}
			conn := &wir.Instr{
				IDNum: id, Op: wir.OpCall, Callee: callee,
				Native: native, Ty: types.TBool, Block: p,
				Args: []wir.Value{c, rw.val},
			}
			id++
			head = append(head, conn)
			sub.Replace(rw.phi, conn)
		}
		p.Instrs = append(head, &wir.Instr{
			IDNum: id, Op: wir.OpBranch, Targets: []*wir.Block{j}, Block: p,
		})
		j.Phis = nil
		j.Preds = []*wir.Block{p}
		f.Blocks = slices.DeleteFunc(f.Blocks, func(b *wir.Block) bool { return b == comp || b == empty })
		renumber(f)
		sub.Apply(f)
		return true
	}
	return false
}

// soleJump returns b's unconditional jump target when b ends in Jump.
func soleJump(b *wir.Block) *wir.Block {
	t := b.Term()
	if t == nil || t.Op != wir.OpBranch {
		return nil
	}
	return t.Targets[0]
}

func solePred(b, p *wir.Block) bool {
	return len(b.Preds) == 1 && b.Preds[0] == p
}
