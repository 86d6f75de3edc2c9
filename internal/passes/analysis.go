// Package passes implements the compiler's analysis and transformation
// passes over WIR/TWIR (paper §4.3, §4.5): dominators, loop nesting,
// liveness, dead code elimination, constant folding with dead-branch
// deletion, common subexpression elimination, inlining, abort-check
// insertion, mutability copy insertion, and reference-count insertion.
package passes

import (
	"wolfc/internal/wir"
)

// Dominators computes the immediate dominator of every reachable block
// using the Cooper–Harvey–Kennedy iterative algorithm (the paper cites "a
// simple, fast dominance algorithm").
type Dominators struct {
	idom  map[*wir.Block]*wir.Block
	order map[*wir.Block]int // reverse postorder index
	rpo   []*wir.Block
}

// ComputeDominators analyses fn.
func ComputeDominators(fn *wir.Function) *Dominators {
	d := &Dominators{
		idom:  map[*wir.Block]*wir.Block{},
		order: map[*wir.Block]int{},
	}
	// Reverse postorder.
	seen := map[*wir.Block]bool{}
	var post []*wir.Block
	var dfs func(b *wir.Block)
	dfs = func(b *wir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			dfs(s)
		}
		post = append(post, b)
	}
	entry := fn.Entry()
	dfs(entry)
	for i := len(post) - 1; i >= 0; i-- {
		d.order[post[i]] = len(d.rpo)
		d.rpo = append(d.rpo, post[i])
	}
	d.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range d.rpo {
			if b == entry {
				continue
			}
			var newIdom *wir.Block
			for _, p := range b.Preds {
				if _, ok := d.idom[p]; !ok {
					continue
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *Dominators) intersect(a, b *wir.Block) *wir.Block {
	for a != b {
		for d.order[a] > d.order[b] {
			a = d.idom[a]
		}
		for d.order[b] > d.order[a] {
			b = d.idom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b.
func (d *Dominators) Dominates(a, b *wir.Block) bool {
	for {
		if a == b {
			return true
		}
		next, ok := d.idom[b]
		if !ok || next == b {
			return false
		}
		b = next
	}
}

// IDom returns b's immediate dominator (nil for the entry or unreachable
// blocks).
func (d *Dominators) IDom(b *wir.Block) *wir.Block {
	i := d.idom[b]
	if i == b {
		return nil
	}
	return i
}

// Reachable reports whether the block was reached in the CFG walk.
func (d *Dominators) Reachable(b *wir.Block) bool {
	_, ok := d.order[b]
	return ok
}

// RPO returns the blocks in reverse postorder.
func (d *Dominators) RPO() []*wir.Block { return d.rpo }

// LoopHeaders returns the set of blocks that are targets of back edges
// (loop-nesting analysis, used by abort-check insertion — paper §4.5).
func LoopHeaders(fn *wir.Function, dom *Dominators) map[*wir.Block]bool {
	heads := map[*wir.Block]bool{}
	for _, b := range fn.Blocks {
		if !dom.Reachable(b) {
			continue
		}
		for _, s := range b.Succs() {
			if dom.Dominates(s, b) {
				heads[s] = true
			}
		}
	}
	return heads
}

// Liveness computes per-block live-in/live-out sets of SSA values using the
// standard phi-edge treatment: a phi's operands are live-out of the
// corresponding predecessors, and phi definitions are not live-in to their
// own block.
type Liveness struct {
	LiveIn  map[*wir.Block]map[wir.Value]bool
	LiveOut map[*wir.Block]map[wir.Value]bool
}

// ComputeLiveness analyses the values trackable accepts. The mutability
// and memory-management passes ask about tensors and other managed values
// alone, which keeps the sets a handful of entries wide on scalar-heavy
// functions.
func ComputeLiveness(fn *wir.Function, trackable func(wir.Value) bool) *Liveness {
	lv := &Liveness{
		LiveIn:  map[*wir.Block]map[wir.Value]bool{},
		LiveOut: map[*wir.Block]map[wir.Value]bool{},
	}
	for _, b := range fn.Blocks {
		lv.LiveIn[b] = map[wir.Value]bool{}
		lv.LiveOut[b] = map[wir.Value]bool{}
	}
	for changed := true; changed; {
		changed = false
		for i := len(fn.Blocks) - 1; i >= 0; i-- {
			b := fn.Blocks[i]
			out := map[wir.Value]bool{}
			for _, s := range b.Succs() {
				for v := range lv.LiveIn[s] {
					out[v] = true
				}
				// Phi uses are live on the edge from this predecessor.
				for _, phi := range s.Phis {
					for pi, pred := range s.Preds {
						if pred == b && pi < len(phi.Args) && trackable(phi.Args[pi]) {
							out[phi.Args[pi]] = true
						}
					}
				}
			}
			in := map[wir.Value]bool{}
			for v := range out {
				in[v] = true
			}
			// Walk instructions backwards.
			for j := len(b.Instrs) - 1; j >= 0; j-- {
				instr := b.Instrs[j]
				delete(in, wir.Value(instr))
				for _, a := range instr.Args {
					if trackable(a) {
						in[a] = true
					}
				}
			}
			for _, phi := range b.Phis {
				delete(in, wir.Value(phi))
			}
			if !setsEqual(out, lv.LiveOut[b]) || !setsEqual(in, lv.LiveIn[b]) {
				lv.LiveOut[b] = out
				lv.LiveIn[b] = in
				changed = true
			}
		}
	}
	return lv
}

func setsEqual(a, b map[wir.Value]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// LiveAfter reports whether v is live immediately after instruction idx of
// block b (used by copy insertion, §4.5 mutability).
func (lv *Liveness) LiveAfter(b *wir.Block, idx int, v wir.Value) bool {
	for j := idx + 1; j < len(b.Instrs); j++ {
		for _, a := range b.Instrs[j].Args {
			if a == v {
				return true
			}
		}
	}
	return lv.LiveOut[b][v]
}

// uses counts how many instruction/phi operands reference each value.
func uses(fn *wir.Function) map[wir.Value]int {
	count := map[wir.Value]int{}
	for _, b := range fn.Blocks {
		for _, phi := range b.Phis {
			for _, a := range phi.Args {
				count[a]++
			}
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				count[a]++
			}
		}
	}
	return count
}
