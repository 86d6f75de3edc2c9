package codegen

import (
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/wir"
)

// Object-register coalescing. A tensor that a loop mutates is, in SSA, a
// chain of values: the loop-carried phi, each Part assignment's result, the
// merge phi after an If. They are one object moving through the loop, and
// giving each its own register costs an interface store (with its write
// barrier) per link per iteration. coalesceObjects puts a chain in one
// register:
//
//   - a checked Part assignment's result takes its operand's register — the
//     operand dies there (InsertCopies), so nothing else can be reading it —
//     and so does a macro loop's unchecked assignment whose result nobody
//     reads;
//   - an object phi takes an operand's register when no value already in
//     either register is live across the definition of one in the other
//     (the usual interference test, on liveness of object values alone).
//
// Edge moves between equal registers are then dropped by phiMoveSteps, and
// the in-place store writes its register only when it copied. Constants are
// never coalesced: their register is loaded once per frame and must read
// the same on every trip round a loop.
func (g *gen) coalesceObjects() error {
	var phis, stores []*wir.Instr
	for _, b := range g.fn.Blocks {
		for _, phi := range b.Phis {
			if phi.Ty != nil && runtime.KindOf(phi.Ty) == runtime.KObj {
				phis = append(phis, phi)
			}
		}
		for _, in := range b.Instrs {
			if _, ok := g.storeOperand(in); ok {
				stores = append(stores, in)
			}
		}
	}
	if len(phis) == 0 && len(stores) == 0 {
		return nil
	}
	// Union-find with member lists; the representative is the earliest
	// value so a parameter's preassigned register wins.
	rep := map[wir.Value]wir.Value{}
	members := map[wir.Value][]wir.Value{}
	find := func(v wir.Value) wir.Value {
		if r, ok := rep[v]; ok {
			return r
		}
		rep[v] = v
		members[v] = []wir.Value{v}
		return v
	}
	union := func(a, b wir.Value) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if _, isParam := rb.(*wir.Param); isParam {
			ra, rb = rb, ra
		}
		for _, m := range members[rb] {
			rep[m] = ra
		}
		members[ra] = append(members[ra], members[rb]...)
		delete(members, rb)
	}
	for _, in := range stores {
		src, _ := g.storeOperand(in)
		union(in, src)
	}
	if len(phis) > 0 {
		iv := newInterference(g)
		for _, phi := range phis {
			for _, a := range phi.Args {
				if !objValue(a) || find(phi) == find(a) {
					continue
				}
				clash := false
				for _, m := range members[find(phi)] {
					for _, n := range members[find(a)] {
						if iv.interfere(m, n) {
							clash = true
						}
					}
				}
				if !clash {
					union(phi, a)
				}
			}
		}
	}
	// Assign in program order so register numbering is reproducible.
	for _, v := range append(stores, phis...) {
		r := find(v)
		ms := members[r]
		if len(ms) < 2 {
			continue
		}
		reg, err := g.regOf(r)
		if err != nil {
			return err
		}
		for _, m := range ms {
			g.regs[m] = reg
		}
		delete(members, r)
	}
	return nil
}

// storeOperand returns the tensor operand whose register in's result
// shares unconditionally, if in is such a Part store.
func (g *gen) storeOperand(in *wir.Instr) (wir.Value, bool) {
	if in.Op != wir.OpCall || in.ResolvedFn != nil || len(in.Args) == 0 || !objValue(in.Args[0]) {
		return nil, false
	}
	switch in.NativeName() {
	case "setpart_1", "setpart_2":
		return in.Args[0], true
	case "setpart_unsafe_1", "setpart_unsafe_2":
		return in.Args[0], g.useCount(in) == 0
	}
	return nil, false
}

// objValue reports whether v is an object-register value with a live range
// (an instruction result or parameter, not a constant).
func objValue(v wir.Value) bool {
	switch v.(type) {
	case *wir.Instr, *wir.Param:
		return v.Type() != nil && runtime.KindOf(v.Type()) == runtime.KObj
	}
	return false
}

// interference answers whether two object values are ever live at once.
type interference struct {
	g  *gen
	lv *passes.Liveness
	// at locates every instruction: its block and, for non-phis, its index
	// in the block's Instrs (phis carry -1).
	at map[*wir.Instr]instrPos
}

type instrPos struct {
	b   *wir.Block
	idx int
}

func newInterference(g *gen) *interference {
	iv := &interference{g: g, lv: passes.ComputeLiveness(g.fn, objValue), at: map[*wir.Instr]instrPos{}}
	for _, b := range g.fn.Blocks {
		for _, phi := range b.Phis {
			iv.at[phi] = instrPos{b, -1}
		}
		for i, in := range b.Instrs {
			iv.at[in] = instrPos{b, i}
		}
	}
	return iv
}

func (iv *interference) interfere(x, y wir.Value) bool {
	// A value nobody reads has no live range to protect.
	if iv.g.useCount(x) == 0 || iv.g.useCount(y) == 0 {
		return false
	}
	return iv.liveAfterDef(x, y) || iv.liveAfterDef(y, x)
}

// liveAfterDef reports whether x is live immediately after y is defined.
func (iv *interference) liveAfterDef(x, y wir.Value) bool {
	switch d := y.(type) {
	case *wir.Param:
		// All parameters are defined together at entry.
		_, isParam := x.(*wir.Param)
		return isParam || iv.lv.LiveIn[iv.g.fn.Entry()][x]
	case *wir.Instr:
		def := iv.at[d]
		xi, _ := x.(*wir.Instr)
		xdef, xInstr := iv.at[xi]
		if def.idx < 0 {
			// The phis of a block are defined together on entry to it.
			return iv.lv.LiveIn[def.b][x] || xInstr && xdef == def
		}
		for _, in := range def.b.Instrs[def.idx+1:] {
			if usesValue(in, x) {
				return true
			}
		}
		// Live out of the block means live here, unless x is defined
		// further down the same block.
		return iv.lv.LiveOut[def.b][x] && !(xInstr && xdef.b == def.b && xdef.idx > def.idx)
	}
	return false
}
