// Package passes implements the compiler's analysis and transformation
// passes over WIR/TWIR (paper §4.3, §4.5): dominators, loop nesting,
// liveness, dead code elimination, constant folding with dead-branch
// deletion, common subexpression elimination, inlining, abort-check
// insertion, mutability copy insertion, and reference-count insertion.
package passes

import (
	"wolfc/internal/wir"
)

// CFG is the control-flow analysis of one function on block indices (a
// block's index is its position in fn.Blocks): reverse postorder, the
// dominator tree by Cooper, Harvey and Kennedy's iteration (the paper cites
// "a simple, fast dominance algorithm"), and the loop forest. The passes read
// it through Dominators; code generation, which is on the compile path of
// both tiers, builds its region tree from the arrays directly.
type CFG struct {
	Blocks []*wir.Block
	Succ   []int // two per block, -1 for none
	RPO    []int // position in reverse postorder, -1 if unreachable
	Order  []int // the reachable blocks in reverse postorder
	IDom   []int // the entry is its own; -1 if unreachable
	Fwd    []int // forward edges into the block
	// Header marks the targets of back edges, and Parent is the header of the
	// innermost loop strictly around a block, -1 outside every loop.
	Header []bool
	Parent []int
	// Kid and Sib thread the dominator tree, children in reverse postorder.
	Kid, Sib []int
	// Irreducible is an edge that enters a loop past its header, {-1, -1}
	// when the CFG has none; Parent is meaningless when it has one.
	Irreducible [2]int

	byBlock map[*wir.Block]int // nil while every block's IDNum is its index
}

// Index returns b's position in the function's block list, -1 if it is not
// one of the function's blocks.
func (c *CFG) Index(b *wir.Block) int {
	if c.byBlock != nil {
		if i, ok := c.byBlock[b]; ok {
			return i
		}
	} else if i := b.IDNum; i < len(c.Blocks) && c.Blocks[i] == b {
		return i
	}
	return -1
}

// Dominates reports whether block a dominates block b, both reachable.
func (c *CFG) Dominates(a, b int) bool {
	for c.RPO[b] > c.RPO[a] {
		b = c.IDom[b]
	}
	return a == b
}

// InLoop reports whether b lies in the loop h heads.
func (c *CFG) InLoop(b, h int) bool {
	for ; b >= 0; b = c.Parent[b] {
		if b == h {
			return true
		}
	}
	return false
}

// Analyze computes fn's CFG. A successor that is not one of fn's blocks is
// ignored (the linter reports it).
func Analyze(fn *wir.Function) *CFG {
	bs := fn.Blocks
	n := len(bs)
	c := &CFG{Blocks: bs, Header: make([]bool, n), Irreducible: [2]int{-1, -1}}
	for i, b := range bs {
		if b.IDNum != i {
			c.byBlock = make(map[*wir.Block]int, n)
			for i, b := range bs {
				c.byBlock[b] = i
			}
			break
		}
	}
	buf := make([]int, 14*n+1)
	for i := range buf {
		buf[i] = -1
	}
	carve := func(k int) []int {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	c.Succ, c.RPO, c.IDom, c.Fwd, c.Parent, c.Kid, c.Sib = carve(2*n), carve(n), carve(n), carve(n), carve(n), carve(n), carve(n)
	for i, b := range bs {
		for k, s := range b.Succs() {
			if k < 2 {
				c.Succ[2*i+k] = c.Index(s)
			}
		}
	}
	post := carve(n)[:0]
	var dfs func(i int)
	dfs = func(i int) {
		c.RPO[i] = 0
		for _, s := range c.Succ[2*i : 2*i+2] {
			if s >= 0 && c.RPO[s] < 0 {
				dfs(s)
			}
		}
		post = append(post, i)
	}
	dfs(0)
	c.Order = carve(n)[:len(post)]
	for k := range post {
		b := post[len(post)-1-k]
		c.Order[k], c.RPO[b] = b, k
	}
	// Predecessors among the reachable blocks, in compressed rows.
	start, preds, fill := carve(n+1), carve(2*n), carve(n)
	clear(start)
	for _, u := range c.Order {
		for _, s := range c.Succ[2*u : 2*u+2] {
			if s >= 0 {
				start[s+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	copy(fill, start)
	for _, u := range c.Order {
		for _, s := range c.Succ[2*u : 2*u+2] {
			if s >= 0 {
				preds[fill[s]] = u
				fill[s]++
			}
		}
	}
	c.IDom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range c.Order[1:] {
			dom := -1
			for _, p := range preds[start[b]:start[b+1]] {
				switch {
				case c.IDom[p] < 0:
				case dom < 0:
					dom = p
				default:
					for q := p; q != dom; {
						for c.RPO[q] > c.RPO[dom] {
							q = c.IDom[q]
						}
						for c.RPO[dom] > c.RPO[q] {
							dom = c.IDom[dom]
						}
					}
				}
			}
			if c.IDom[b] != dom {
				c.IDom[b], changed = dom, true
			}
		}
	}
	clear(c.Fwd)
	for _, u := range c.Order {
		for _, s := range c.Succ[2*u : 2*u+2] {
			switch {
			case s < 0:
			case c.RPO[s] > c.RPO[u]:
				c.Fwd[s]++
			case c.Dominates(s, u):
				c.Header[s] = true
			case c.Irreducible[0] < 0:
				c.Irreducible = [2]int{u, s}
			}
		}
	}
	// Loop nesting, inner loops first: walk back from each latch to the
	// header, stepping over a loop already found to its header.
	var stack []int
	for k := len(c.Order) - 1; k >= 0 && c.Irreducible[0] < 0; k-- {
		h := c.Order[k]
		if !c.Header[h] {
			continue
		}
		for _, p := range preds[start[h]:start[h+1]] {
			if c.RPO[p] >= c.RPO[h] {
				stack = append(stack, p)
			}
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for c.Parent[b] >= 0 && c.Parent[b] != h {
				b = c.Parent[b]
			}
			if b == h || c.Parent[b] == h {
				continue
			}
			c.Parent[b] = h
			stack = append(stack, preds[start[b]:start[b+1]]...)
		}
	}
	for k := len(c.Order) - 1; k > 0; k-- {
		b := c.Order[k]
		c.Sib[b], c.Kid[c.IDom[b]] = c.Kid[c.IDom[b]], b
	}
	return c
}

// Dominators answers dominance questions about blocks.
type Dominators struct{ cfg *CFG }

// ComputeDominators analyses fn.
func ComputeDominators(fn *wir.Function) *Dominators { return &Dominators{Analyze(fn)} }

// Dominates reports whether a dominates b.
func (d *Dominators) Dominates(a, b *wir.Block) bool {
	return a == b || d.Reachable(a) && d.Reachable(b) && d.cfg.Dominates(d.cfg.Index(a), d.cfg.Index(b))
}

// IDom returns b's immediate dominator (nil for the entry or unreachable
// blocks).
func (d *Dominators) IDom(b *wir.Block) *wir.Block {
	if i := d.cfg.Index(b); i > 0 && d.cfg.IDom[i] >= 0 {
		return d.cfg.Blocks[d.cfg.IDom[i]]
	}
	return nil
}

// Reachable reports whether the block was reached in the CFG walk.
func (d *Dominators) Reachable(b *wir.Block) bool {
	i := d.cfg.Index(b)
	return i >= 0 && d.cfg.RPO[i] >= 0
}

// RPO returns the blocks in reverse postorder.
func (d *Dominators) RPO() []*wir.Block {
	out := make([]*wir.Block, len(d.cfg.Order))
	for k, b := range d.cfg.Order {
		out[k] = d.cfg.Blocks[b]
	}
	return out
}

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
