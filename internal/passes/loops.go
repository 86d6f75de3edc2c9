// Loop optimisations over TWIR (paper §4.5 lists loop-invariant code
// motion and strength reduction among the TWIR passes). Natural loops come
// from the CFG's loop forest (Analyze); each optimised loop gets
// a preheader block so hoisted code runs exactly once before entry.
//
// Exception discipline: compiled integer arithmetic is overflow-checked and
// throws (soft interpreter fallback, F2), so LICM only hoists natives that
// can never throw — a hoisted instruction executes even when the loop body
// would not (trip count 0). Strength reduction keeps the checked ops for
// the derived induction variable; a spurious overflow at most shifts *when*
// the fallback triggers, never the final value, because the interpreter
// re-evaluates from the original (copy-protected) arguments.
package passes

import (
	"slices"

	"wolfc/internal/expr"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// Loop is one natural loop: the back-edge target plus every block that can
// reach a back edge without leaving the header's dominance region.
type Loop struct {
	Header *wir.Block
	Body   map[*wir.Block]bool // includes Header
	blocks []*wir.Block        // Body in block order, nil until asked for
}

// FindLoops lists fn's natural loops from its CFG, in the order their first
// back edge appears in fn.Blocks (LICM's result depends on it), and none when
// the CFG is irreducible.
func FindLoops(fn *wir.Function) []*Loop {
	c := Analyze(fn)
	if c.Irreducible[0] >= 0 {
		return nil
	}
	var loops []*Loop
	found := make([]bool, len(c.Blocks))
	for u := range c.Blocks {
		for _, h := range c.Succ[2*u : 2*u+2] {
			if h < 0 || !c.Header[h] || found[h] || c.RPO[u] < 0 || !c.Dominates(h, u) {
				continue
			}
			found[h] = true
			l := &Loop{Header: c.Blocks[h], Body: map[*wir.Block]bool{}}
			for b, blk := range c.Blocks {
				if c.InLoop(b, h) {
					l.Body[blk] = true
				}
			}
			loops = append(loops, l)
		}
	}
	return loops
}

// insertPreheader gives the loop a dedicated preheader: every entry edge is
// redirected through a fresh block that branches to the header, so hoisted
// instructions have a place that runs once per loop entry. Returns nil when
// the header is the function entry (no edge to redirect).
func insertPreheader(f *wir.Function, l *Loop) *wir.Block {
	header := l.Header
	if header == f.Entry() {
		return nil
	}
	var insideIdx, outsideIdx []int
	for i, p := range header.Preds {
		if l.Body[p] {
			insideIdx = append(insideIdx, i)
		} else {
			outsideIdx = append(outsideIdx, i)
		}
	}
	if len(outsideIdx) == 0 {
		return nil
	}
	pre := &wir.Block{Label: header.Label + "_pre", Fn: f, AbortInhibit: header.AbortInhibit}
	// Fresh IDs are handed out manually: nextID only sees blocks already
	// spliced into the function, and the preheader is inserted last.
	id := nextID(f)
	// Rewire each header phi: the outside operands merge in the preheader
	// (through a preheader phi when there is more than one entry edge).
	for _, phi := range header.Phis {
		var entry wir.Value
		if len(outsideIdx) == 1 {
			entry = phi.Args[outsideIdx[0]]
		} else {
			prePhi := &wir.Instr{IDNum: id, Op: wir.OpPhi, Ty: phi.Ty, Block: pre}
			id++
			for _, oi := range outsideIdx {
				prePhi.Args = append(prePhi.Args, phi.Args[oi])
			}
			pre.Phis = append(pre.Phis, prePhi)
			entry = prePhi
		}
		newArgs := []wir.Value{entry}
		for _, ii := range insideIdx {
			newArgs = append(newArgs, phi.Args[ii])
		}
		phi.Args = newArgs
	}
	pre.Instrs = []*wir.Instr{{
		IDNum: id, Op: wir.OpBranch, Targets: []*wir.Block{header}, Block: pre,
	}}
	newPreds := []*wir.Block{pre}
	for _, ii := range insideIdx {
		newPreds = append(newPreds, header.Preds[ii])
	}
	for _, oi := range outsideIdx {
		p := header.Preds[oi]
		pre.Preds = append(pre.Preds, p)
		if t := p.Term(); t != nil {
			for ti, tgt := range t.Targets {
				if tgt == header {
					t.Targets[ti] = pre
				}
			}
		}
	}
	header.Preds = newPreds
	// Place the preheader right before the header and renumber.
	for i, b := range f.Blocks {
		if b == header {
			f.Blocks = append(f.Blocks[:i], append([]*wir.Block{pre}, f.Blocks[i:]...)...)
			break
		}
	}
	renumber(f)
	return pre
}

// hoistable reports whether in may be moved to the loop preheader: a native
// declared Pure, which never throws, so running it speculatively is safe.
func hoistable(in *wir.Instr) bool {
	if in.Op != wir.OpCall || in.ResolvedFn != nil || in.IsTerminator() || in.Ty == nil {
		return false
	}
	if d, ok := in.Prop("overload"); ok {
		if d.(*types.FuncDef).Impl != nil {
			return false
		}
	}
	n := in.NativeName()
	// Length is immutable per tensor value, so loop-body stores cannot
	// change it — but guard against the dead Null placeholder constant (a
	// typed nil tensor) which would fault when executed.
	if n == "tensor_length" {
		if c, ok := in.Args[0].(*wir.Const); ok && expr.SameQ(c.Expr, expr.SymNull) {
			return false
		}
	}
	return types.NativeEffect(n, in.Ty) == types.Pure
}

// registerPreheader keeps sibling loop bodies consistent: a preheader of a
// nested loop lies inside every enclosing loop, so enclosing Body sets must
// absorb it or later invariance checks would misclassify hoisted values.
func registerPreheader(loops []*Loop, l *Loop, pre *wir.Block) {
	if pre == nil {
		return
	}
	for _, m := range loops {
		if m != l && m.Body[l.Header] {
			m.Body[pre] = true
			m.blocks = nil
		}
	}
}

// bodyBlocks returns the loop body in function block order (deterministic
// compile output; map iteration order must not leak into the IR).
func bodyBlocks(f *wir.Function, l *Loop) []*wir.Block {
	if l.blocks == nil {
		for _, b := range f.Blocks {
			if l.Body[b] {
				l.blocks = append(l.blocks, b)
			}
		}
	}
	return l.blocks
}

// LICM hoists loop-invariant, no-throw pure instructions into the
// preheaders of f's loops. Reports whether anything changed.
func LICM(f *wir.Function, loops []*Loop) bool {
	changed := false
	for _, l := range loops {
		var pre *wir.Block
		preTried := false
		getPre := func() *wir.Block {
			if !preTried {
				preTried = true
				pre = insertPreheader(f, l)
				registerPreheader(loops, l, pre)
			}
			return pre
		}
		// An operand is invariant when defined outside the loop body
		// (constants, params, hoisted or pre-loop instructions).
		invariant := func(v wir.Value) bool {
			if x, ok := v.(*wir.Instr); ok {
				return !l.Body[x.Block]
			}
			return true // Const, Param, FuncRef
		}
		body := bodyBlocks(f, l)
		for again := true; again; {
			again = false
			for _, b := range body {
				for i := 0; i < len(b.Instrs); i++ {
					in := b.Instrs[i]
					if !hoistable(in) || slices.ContainsFunc(in.Args, func(a wir.Value) bool { return !invariant(a) }) {
						continue
					}
					p := getPre()
					if p == nil {
						break // header is the entry block; cannot hoist
					}
					// Move before the preheader terminator; dependency order
					// is preserved because an instruction hoists only after
					// its loop-defined operands already did.
					b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
					i--
					term := p.Instrs[len(p.Instrs)-1]
					p.Instrs = append(p.Instrs[:len(p.Instrs)-1], in, term)
					in.Block = p
					changed = true
					again = true
				}
			}
		}
	}
	return changed
}

// StrengthReduce rewrites induction-variable multiplies i*k (k constant,
// int64) into an additive derived induction variable j with j ≡ i*k,
// stepped by c*k alongside i's own increment (§4.5 strength reduction).
// The derived update uses the same checked arithmetic as the multiply it
// replaces, so overflow still unwinds into the interpreter fallback.
func StrengthReduce(f *wir.Function, loops []*Loop) bool {
	var sub wir.Subst
	changed := false
	for _, l := range loops {
		header := l.Header
		if header == f.Entry() || len(header.Preds) != 2 {
			continue
		}
		// Fast path: no candidate multiply, leave the loop untouched.
		body := bodyBlocks(f, l)
		hasTimes := false
		for _, b := range body {
			for _, in := range b.Instrs {
				if in.NativeName() == "binary_times" && in.Ty == types.TInt64 {
					hasTimes = true
				}
			}
		}
		if !hasTimes {
			continue
		}
		latchIdx, entryIdx := -1, -1
		for i, p := range header.Preds {
			if l.Body[p] {
				latchIdx = i
			} else {
				entryIdx = i
			}
		}
		if latchIdx == -1 || entryIdx == -1 {
			continue
		}
		// The entry value of a derived IV may need computing once before the
		// loop; that needs a dedicated preheader (an entry predecessor whose
		// only successor is the header) so it cannot run on paths that skip
		// the loop.
		if len(header.Preds[entryIdx].Succs()) != 1 {
			pre := insertPreheader(f, l)
			if pre == nil {
				continue
			}
			registerPreheader(loops, l, pre)
			entryIdx, latchIdx = 0, 1
			if l.Body[header.Preds[0]] {
				entryIdx, latchIdx = 1, 0
			}
		}
		for _, iv := range header.Phis {
			if iv.Ty != types.TInt64 || len(iv.Args) != 2 {
				continue
			}
			step, ok := iv.Args[latchIdx].(*wir.Instr)
			if !ok || !l.Body[step.Block] || step.NativeName() != "binary_plus" || step.Ty != types.TInt64 {
				continue
			}
			c, ok := addendOf(step, iv)
			if !ok {
				continue
			}
			derived := map[int64]*wir.Instr{} // multiplier k -> derived phi
			for _, b := range body {
				for _, in := range b.Instrs {
					if in.NativeName() != "binary_times" || in.Ty != types.TInt64 || in == step {
						continue
					}
					k, ok := addendOf(in, iv)
					if !ok || k == 0 {
						continue
					}
					ck, ok := runtime.MulOK(c, k)
					if !ok {
						continue
					}
					jphi := derived[k]
					if jphi == nil {
						jphi = buildDerivedIV(f, l, iv, step, k, ck, entryIdx, latchIdx)
						if jphi == nil {
							continue
						}
						derived[k] = jphi
					}
					sub.Replace(in, jphi)
					changed = true
				}
			}
		}
	}
	sub.Apply(f)
	return changed
}

// addendOf matches in = native(iv, Const) | native(Const, iv) and returns
// the constant.
func addendOf(in *wir.Instr, iv wir.Value) (int64, bool) {
	if len(in.Args) != 2 {
		return 0, false
	}
	for i := 0; i < 2; i++ {
		if in.Args[i] == iv {
			if v, ok := constValue(in.Args[1-i]); ok {
				if n, isInt := v.(int64); isInt {
					return n, true
				}
			}
		}
	}
	return 0, false
}

// buildDerivedIV creates the phi j = φ(entry: i0*k, latch: j + c*k) and the
// latch update, returning the phi (nil if the entry value cannot be built).
func buildDerivedIV(f *wir.Function, l *Loop, iv, step *wir.Instr, k, ck int64,
	entryIdx, latchIdx int) *wir.Instr {
	header := l.Header
	intTy := types.TInt64
	id := nextID(f) // handed out manually; see insertPreheader
	mkConst := func(v int64) *wir.Const {
		return &wir.Const{Expr: expr.FromInt64(v), Ty: intTy}
	}
	var entry wir.Value
	if v, ok := constValue(iv.Args[entryIdx]); ok {
		n, isInt := v.(int64)
		if !isInt {
			return nil
		}
		j0, ok := runtime.MulOK(n, k)
		if !ok {
			return nil
		}
		entry = mkConst(j0)
	} else {
		// Compute i0*k once in the preheader (the caller guaranteed the
		// entry predecessor's only successor is the header). MulI64 may
		// throw here on paths the multiply never ran — that only turns a
		// would-be in-loop overflow into an earlier interpreter fallback
		// with the same final value.
		pre := header.Preds[entryIdx]
		mul := &wir.Instr{
			IDNum: id, Op: wir.OpCall, Callee: "Native`Times",
			Native: "binary_times", Ty: intTy, Block: pre,
			Args: []wir.Value{iv.Args[entryIdx], mkConst(k)},
		}
		id++
		term := pre.Instrs[len(pre.Instrs)-1]
		pre.Instrs = append(pre.Instrs[:len(pre.Instrs)-1], mul, term)
		entry = mul
	}
	jphi := &wir.Instr{IDNum: id, Op: wir.OpPhi, Ty: intTy, Block: header}
	jnext := &wir.Instr{
		IDNum: id + 1, Op: wir.OpCall, Callee: "Native`Plus",
		Native: "binary_plus", Ty: intTy, Block: step.Block,
		Args: []wir.Value{jphi, mkConst(ck)},
	}
	jphi.Args = make([]wir.Value, 2)
	jphi.Args[entryIdx] = entry
	jphi.Args[latchIdx] = jnext
	// Insert the update right after i's own increment so it dominates the
	// back edge exactly as the increment does.
	for i, in := range step.Block.Instrs {
		if in == step {
			rest := append([]*wir.Instr{jnext}, step.Block.Instrs[i+1:]...)
			step.Block.Instrs = append(step.Block.Instrs[:i+1], rest...)
			break
		}
	}
	header.Phis = append(header.Phis, jphi)
	return jphi
}

// LoopOptimize runs LICM and strength reduction over every function until a
// fixed point (bounded). Each round finds the loops once: both passes keep
// the loop bodies current as they insert preheaders (registerPreheader).
// Reports whether anything changed.
func LoopOptimize(mod *wir.Module) bool {
	changed := false
	for _, f := range mod.Funcs {
		for round := 0; round < 4; round++ {
			loops := FindLoops(f)
			hoisted := LICM(f, loops)
			if !StrengthReduce(f, loops) && !hoisted {
				break
			}
			changed = true
		}
	}
	return changed
}
