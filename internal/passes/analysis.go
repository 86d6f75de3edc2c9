// Package passes implements the compiler's analysis and transformation
// passes over WIR/TWIR (paper §4.3, §4.5): dominators, loop nesting,
// liveness, dead code elimination, constant folding with dead-branch
// deletion, common subexpression elimination, inlining, abort-check
// insertion, mutability copy insertion, and reference-count insertion.
package passes

import (
	"slices"

	"wolfc/internal/wir"
)

// CFG is the control-flow analysis of one function on block indices (a
// block's index is its position in fn.Blocks): reverse postorder, the
// dominator tree by Cooper, Harvey and Kennedy's iteration (the paper cites
// "a simple, fast dominance algorithm"), and the loop forest. It is the one
// control-flow analysis: the passes and code generation's region tree both
// read these arrays.
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

// renumber makes every block's IDNum its index again, after blocks were
// added or removed.
func renumber(f *wir.Function) {
	for i, b := range f.Blocks {
		b.IDNum = i
	}
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
// functions. While the fixpoint runs the sets are rows of bits: per block,
// in, out, gen (what it uses and does not define), kill (what it defines)
// and edge (the phi operands it sends its successors).
func ComputeLiveness(fn *wir.Function, trackable func(wir.Value) bool) *Liveness {
	bit := map[wir.Value]int{}
	var vals []wir.Value
	fn.Each(func(in *wir.Instr) {
		for _, a := range in.Args {
			if _, ok := bit[a]; !ok && trackable(a) {
				bit[a], vals = len(vals), append(vals, a)
			}
		}
	})
	n, w := len(fn.Blocks), (len(vals)+63)/64
	rows := make([]uint64, 5*n*w)
	row := func(r, i int) []uint64 { return rows[(r*n+i)*w : (r*n+i+1)*w] }
	const in, out, gen, kill, edge = 0, 1, 2, 3, 4
	add := func(r, i int, v wir.Value) {
		if k, ok := bit[v]; ok && (r != gen || row(kill, i)[k/64]>>(k%64)&1 == 0) {
			row(r, i)[k/64] |= 1 << (k % 64)
		}
	}
	pos := make(map[*wir.Block]int, n)
	for i, b := range fn.Blocks {
		pos[b] = i
	}
	for i, b := range fn.Blocks {
		for _, phi := range b.Phis {
			add(kill, i, phi)
		}
		for _, instr := range b.Instrs {
			for _, a := range instr.Args {
				add(gen, i, a)
			}
			add(kill, i, instr)
		}
		for _, s := range b.Succs() {
			for _, phi := range s.Phis {
				for pi, pred := range s.Preds {
					if pred == b && pi < len(phi.Args) {
						add(edge, i, phi.Args[pi])
					}
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			for k := 0; k < w; k++ {
				o := row(edge, i)[k]
				for _, s := range fn.Blocks[i].Succs() {
					if j, ok := pos[s]; ok {
						o |= row(in, j)[k]
					}
				}
				if v := row(gen, i)[k] | o&^row(kill, i)[k]; o != row(out, i)[k] || v != row(in, i)[k] {
					row(out, i)[k], row(in, i)[k], changed = o, v, true
				}
			}
		}
	}
	lv := &Liveness{LiveIn: make(map[*wir.Block]map[wir.Value]bool, n), LiveOut: make(map[*wir.Block]map[wir.Value]bool, n)}
	for i, b := range fn.Blocks {
		for k, v := range vals {
			for r, sets := range [2]map[*wir.Block]map[wir.Value]bool{lv.LiveIn, lv.LiveOut} {
				if row(r, i)[k/64]>>(k%64)&1 != 0 {
					if sets[b] == nil {
						sets[b] = map[wir.Value]bool{}
					}
					sets[b][v] = true
				}
			}
		}
	}
	return lv
}

// LiveAfter reports whether v is live immediately after instruction idx of
// block b (used by copy insertion, §4.5 mutability).
func (lv *Liveness) LiveAfter(b *wir.Block, idx int, v wir.Value) bool {
	for _, later := range b.Instrs[idx+1:] {
		if slices.Contains(later.Args, v) {
			return true
		}
	}
	return lv.LiveOut[b][v]
}

// uses counts how many instruction/phi operands reference each value: an
// instruction at its IDNum, a parameter at its Index.
func uses(fn *wir.Function) (instrs, params []int) {
	instrs, params = make([]int, nextID(fn)), make([]int, len(fn.Params))
	fn.Each(func(in *wir.Instr) {
		for _, a := range in.Args {
			switch v := a.(type) {
			case *wir.Instr:
				if v.IDNum < len(instrs) {
					instrs[v.IDNum]++
				}
			case *wir.Param:
				if v.Index < len(params) {
					params[v.Index]++
				}
			}
		}
	})
	return instrs, params
}
