// Loops run as Go loops (ISSUE 19). A function's CFG is rebuilt into a tree
// of regions — a block's steps, an edge's phi moves, an If, a loop — and the
// tree compiles to closures that run a While as a Go for and an If as a Go
// if, with no dispatch between blocks. The construction is that of Ramsey's
// "Beyond Relooper" (ICFP 2022) on the dominator tree, except that what a
// loop's header dominates outside the loop is placed after the loop, not in
// it. It covers every reducible CFG, which is every CFG this front end lowers
// (control enters a While or an If only at its top) and the passes keep; an
// irreducible one is a codegen error.
//
// A block is placed inline where the one edge into it branches. A block that
// several edges reach (the join of an If, the exit of a loop with a Break)
// follows the construct of the block that dominates it, in reverse
// postorder, so every edge into it points forward in the tree. An edge to
// what follows it falls through; an edge out of a loop to what follows the
// loop is a break. Any other — a Return or a Continue from a nested
// position — leaves with an exit code, the target block's, returned up the
// closure tree until the sequence that holds the target, or the loop it
// heads, takes it.
package codegen

import (
	"fmt"
	"strings"

	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/wir"
)

// flow is a compiled control region. It returns the exit in flight when
// control leaves other than by falling out of its end: the code of the block
// the exit lands at (its index plus one), exitReturn or exitBreak; 0 if none.
type flow func(fr *frame) int

const (
	exitReturn = -1
	exitBreak  = -2
)

type regionKind uint8

const (
	regionBlock  regionKind = iota // block's steps
	regionEdge                     // the phi moves of the edge block→to
	regionReturn                   // block's Return
	regionIf                       // block's conditional branch and its two arms
	regionLoop                     // the loop block heads; falling out of its body repeats it
)

// region is one node of a function's region tree.
type region struct {
	kind  regionKind
	nthen int32 // an If's kids[:nthen] are its then arm, the rest its else arm
	// label, on a block or loop placed after the construct that branches to
	// it, is the exit code that lands here; 0 where control only falls in.
	label int
	// exit, on an edge or a Return, is the code control leaves with; 0 when
	// what follows the region is where it goes. On a loop it is the header's
	// own code, the exit that goes round again.
	exit      int
	block, to *wir.Block
	kids      []*region // an If's arms, a loop's body
}

// treeBuilder places blocks. after is the code of what follows the innermost
// loop being placed (0 outside loops), landed marks the blocks some edge
// leaves for with their exit code, and regions are carved from slab.
type treeBuilder struct {
	*passes.CFG
	after  int
	landed []bool
	slab   []region
}

// regions builds the function's region tree.
func (g *gen) regions() ([]*region, error) {
	c := passes.Analyze(g.fn)
	if e := c.Irreducible; e[0] >= 0 {
		return nil, fmt.Errorf("codegen %s: irreducible control flow: %s enters the loop around %s past its header",
			g.fn.Name, c.Blocks[e[0]].Label, c.Blocks[e[1]].Label)
	}
	// One region per block, per edge, per Return or If and per loop.
	n := 0
	for _, b := range c.Order {
		t := c.Blocks[b].Term()
		if t == nil {
			return nil, fmt.Errorf("codegen %s: block %s unterminated", g.fn.Name, c.Blocks[b].Label)
		}
		if n += 1 + len(t.Targets); c.Header[b] {
			n++
		}
		if t.Op != wir.OpBranch {
			n++
		}
	}
	g.cfg = c
	tb := &treeBuilder{CFG: c, landed: make([]bool, len(c.Blocks)), slab: make([]region, 0, n)}
	var root []*region
	tb.place(&root, 0, exitReturn)
	return root, nil
}

func (c *treeBuilder) region(r region) *region {
	c.slab = append(c.slab, r) // sized exactly: this never moves it
	return &c.slab[len(c.slab)-1]
}

// place appends block x and everything it dominates to seq; next is the
// code of where control goes when it falls out of seq's end.
func (c *treeBuilder) place(seq *[]*region, x, next int) {
	// What x dominates and its branch does not reach alone follows x's
	// construct: inside x's loop, or after the loop when it lies outside.
	var in, out []int
	for k := c.Kid[x]; k >= 0; k = c.Sib[k] {
		switch {
		case c.Header[x] && !c.InLoop(k, x):
			out = append(out, k)
		case c.Fwd[k] > 1:
			in = append(in, k)
		}
	}
	into, inner, outer := seq, next, c.after
	var loop *region
	if c.Header[x] {
		loop = c.region(region{kind: regionLoop, block: c.Blocks[x], exit: x + 1})
		into, inner = &loop.kids, x+1
		if c.after = next; len(out) > 0 {
			c.after = out[0] + 1
		}
	}
	after := inner
	if len(in) > 0 {
		after = in[0] + 1
	}
	*into = append(*into, c.region(region{kind: regionBlock, block: c.Blocks[x]}))
	switch t := c.Blocks[x].Term(); t.Op {
	case wir.OpReturn:
		r := c.region(region{kind: regionReturn, block: c.Blocks[x]})
		if after != exitReturn {
			r.exit = exitReturn
		}
		*into = append(*into, r)
	case wir.OpBranch:
		c.edge(into, x, c.Succ[2*x], after)
	case wir.OpCondBranch:
		r := c.region(region{kind: regionIf, block: c.Blocks[x]})
		c.edge(&r.kids, x, c.Succ[2*x], after)
		r.nthen = int32(len(r.kids))
		c.edge(&r.kids, x, c.Succ[2*x+1], after)
		*into = append(*into, r)
	}
	c.follows(into, in, inner)
	if loop != nil {
		*seq, c.after = append(*seq, loop), outer
		c.follows(seq, out, next)
	}
}

// follows places each block of fs, labelled if an exit lands on it: every
// edge into it has been placed by now, since they all point forward.
func (c *treeBuilder) follows(seq *[]*region, fs []int, next int) {
	for i, f := range fs {
		at, n := len(*seq), next
		if i+1 < len(fs) {
			n = fs[i+1] + 1
		}
		if c.place(seq, f, n); c.landed[f] {
			(*seq)[at].label = f + 1
		}
	}
}

// edge appends the edge x→t, and t itself when no other edge enters it.
func (c *treeBuilder) edge(seq *[]*region, x, t, after int) {
	e := c.region(region{kind: regionEdge, block: c.Blocks[x], to: c.Blocks[t]})
	*seq = append(*seq, e)
	switch {
	case c.RPO[t] > c.RPO[x] && c.Fwd[t] == 1 && !(c.Header[x] && !c.InLoop(t, x)):
		c.place(seq, t, after)
	case t+1 == after:
	case t+1 == c.after:
		e.exit = exitBreak
	default:
		e.exit, c.landed[t] = t+1, true
	}
}

// ---------------------------------------------------------------------------
// Closures. Go keeps no register across a call, so a closure reloads every
// captured variable it holds in one after each call it makes: the ones that
// run loops reach what they need through a single pointer instead, which
// costs one load where a field is used and nothing elsewhere.

// test is the condition of an If or a loop: a fused compare tree, or the
// boolean register an unfused one left its result in.
type test struct {
	ev  evalB
	reg int
}

func (t test) eval(fr *frame) bool {
	if t.ev != nil {
		return t.ev(fr)
	}
	return fr.b[t.reg]
}

// holds is t as an evaluator of whether it reads want.
func (t test) holds(want bool) evalB {
	if t.ev != nil && want {
		return t.ev
	}
	return func(fr *frame) bool { return t.eval(fr) == want }
}

// seqStep folds steps into one (nil for none), five at a time. Every call in
// it is its own call site, which lets the processor predict where each one
// goes; a loop over the slice would make them all from one. A step of n runs
// under seqDepth(n) closures, their logarithm: what a call costs in Go stack
// must not grow with the length of the block it sits in.
func seqStep(sts []step) step {
	for len(sts) > 5 {
		folded := make([]step, 0, (len(sts)+4)/5)
		for ; len(sts) > 0; sts = sts[min(5, len(sts)):] {
			folded = append(folded, seqStep(sts[:min(5, len(sts))]))
		}
		sts = folded
	}
	switch len(sts) {
	case 0:
		return nil
	case 1:
		return sts[0]
	case 2:
		a, b := sts[0], sts[1]
		return func(fr *frame) { a(fr); b(fr) }
	case 3:
		a, b, c := sts[0], sts[1], sts[2]
		return func(fr *frame) { a(fr); b(fr); c(fr) }
	case 4:
		a, b, c, d := sts[0], sts[1], sts[2], sts[3]
		return func(fr *frame) { a(fr); b(fr); c(fr); d(fr) }
	}
	a, b, c, d, e := sts[0], sts[1], sts[2], sts[3], sts[4]
	return func(fr *frame) { a(fr); b(fr); c(fr); d(fr); e(fr) }
}

// seqDepth is how many closures seqStep puts around each of n steps.
func seqDepth(n int) (d int) {
	for ; n > 1; n = (n + 4) / 5 {
		d++
	}
	return d
}

// part is a stretch of a sequence that control can enter only at its top, by
// falling in or as the landing of the exit label names: steps, then the
// control region or the exit that ends it (0 falls into the next part).
type part struct {
	label int
	steps []step
	pre   step // steps, folded
	ctl   flow
	exit  int
	// deep is how many region closures deep the instructions under one of
	// the part's steps, or under ctl, run at most: 0 when all its steps are
	// instructions.
	deep int
}

// plain reports whether control can only fall out of the part's end.
func (p *part) plain() bool { return p.ctl == nil && p.exit == 0 }

// depth is how many closures deep the part's instructions run once its steps
// are folded: what a call among them finds on the Go stack between it and
// whoever runs the part.
func (p *part) depth() int { return seqDepth(len(p.steps)) + p.deep }

// seqFlow runs a sequence. An exit in flight lands at the later part that
// carries its code as its label, and goes on up when there is none.
func seqFlow(parts []part) flow {
	for i := range parts {
		parts[i].pre, parts[i].steps = seqStep(parts[i].steps), nil
	}
	return func(fr *frame) int {
		for i := 0; i < len(parts); i++ {
			p := &parts[i]
			if p.pre != nil {
				p.pre(fr)
			}
			c := p.exit
			if p.ctl != nil {
				c = p.ctl(fr)
			}
			if c == 0 {
				continue
			}
			for i++; i < len(parts) && parts[i].label != c; i++ {
			}
			if i == len(parts) {
				return c
			}
			i--
		}
		return 0
	}
}

// ifStep is an If control can only fall out of; ifFlow is any other. Inlined
// into its builder, ifStep's closure would keep the test's eval a call.
//
//go:noinline
func ifStep(t test, then, els step) step {
	return func(fr *frame) {
		if t.eval(fr) {
			if then != nil {
				then(fr)
			}
		} else if els != nil {
			els(fr)
		}
	}
}

func ifFlow(t test, then, els part) flow {
	c := &struct {
		t         test
		then, els part
	}{t, then, els}
	c.then.pre, c.then.steps = seqStep(then.steps), nil
	c.els.pre, c.els.steps = seqStep(els.steps), nil
	return func(fr *frame) int {
		a := &c.els
		if c.t.eval(fr) {
			a = &c.then
		}
		if a.pre != nil {
			a.pre(fr)
		}
		if a.ctl != nil {
			return a.ctl(fr)
		}
		return a.exit
	}
}

// loopFlow runs a loop as a Go loop. Each trip polls for an abort, runs the
// header's steps and, when the header branches out of the loop (a While),
// asks stays whether to go on; then the body, its first steps from call sites
// of their own. Falling out of the body or an exit to the header goes round
// again, a break ends the loop, and any other exit leaves through it.
func loopFlow(self int, poll bool, head step, stays evalB, stay, leave part) flow {
	l := &struct {
		self, exit, left     int
		poll                 bool
		stays                evalB
		head, b0, b1, b2, b3 step
		last                 step
		rest                 flow
	}{self: self, exit: stay.exit, left: leave.exit, poll: poll, stays: stays, head: head,
		last: seqStep(leave.steps), rest: stay.ctl}
	if l.exit == self {
		l.exit = 0
	}
	var b [4]step
	if copy(b[:], stay.steps) == 4 {
		b[3] = seqStep(stay.steps[3:])
	}
	l.b0, l.b1, l.b2, l.b3 = b[0], b[1], b[2], b[3]
	if head == nil && stays != nil && l.b0 != nil && l.rest == nil && l.exit == 0 {
		// The tight loops, a While over a few steps: nothing to do each trip
		// but poll, test and run them.
		return func(fr *frame) int {
			for {
				if l.poll && fr.rt.Aborted() {
					runtime.Throw(runtime.ExcAbort, "aborted")
				}
				if !l.stays(fr) {
					if l.last != nil {
						l.last(fr)
					}
					return l.left
				}
				if l.b0(fr); l.b1 != nil {
					if l.b1(fr); l.b2 != nil {
						if l.b2(fr); l.b3 != nil {
							l.b3(fr)
						}
					}
				}
			}
		}
	}
	return func(fr *frame) int {
		for {
			if l.poll && fr.rt.Aborted() {
				runtime.Throw(runtime.ExcAbort, "aborted")
			}
			if l.head != nil {
				l.head(fr)
			}
			if l.stays != nil && !l.stays(fr) {
				if l.last != nil {
					l.last(fr)
				}
				return l.left
			}
			if l.b0 != nil {
				if l.b0(fr); l.b1 != nil {
					if l.b1(fr); l.b2 != nil {
						if l.b2(fr); l.b3 != nil {
							l.b3(fr)
						}
					}
				}
			}
			c := l.exit
			if l.rest != nil {
				if c = l.rest(fr); c == l.self {
					continue
				}
			}
			if c == exitBreak {
				return 0
			}
			if c != 0 {
				return c
			}
		}
	}
}

// compile turns a sequence of regions into one part: its leading steps for
// the enclosing closure to run itself, and one flow for what follows them.
func (g *gen) compile(seq []*region) (part, error) {
	parts, err := g.parts(seq)
	if err != nil || len(parts) == 1 {
		return parts[0], err
	}
	first := part{steps: parts[0].steps}
	parts[0].steps = nil
	for i := range parts {
		first.deep = max(first.deep, 1+parts[i].depth())
	}
	first.ctl = seqFlow(parts)
	return first, nil
}

// parts compiles a sequence of regions, split where control can leave it or
// an exit can land in it.
func (g *gen) parts(seq []*region) ([]part, error) {
	parts := make([]part, 1)
	for k, r := range seq {
		p := &parts[len(parts)-1]
		if k > 0 && (r.label != 0 || !p.plain()) {
			parts = append(parts, part{label: r.label})
			p = &parts[len(parts)-1]
		}
		var err error
		switch r.kind {
		case regionBlock:
			p.steps, err = g.blockSteps(p.steps, r.block, g.cf.poll && r.block == g.fn.Blocks[0])
		case regionEdge:
			var sts []step
			sts, err = g.phiMoveSteps(r.block, r.to)
			p.steps, p.exit = append(p.steps, sts...), r.exit
		case regionReturn:
			var st step
			if st, err = g.returnStep(r.block.Term()); st != nil {
				p.steps = append(p.steps, st)
			}
			p.exit = r.exit
		case regionIf:
			var t test
			var then, els part
			if t, then, els, err = g.arms(r); then.plain() && els.plain() {
				p.steps = append(p.steps, ifStep(t, seqStep(then.steps), seqStep(els.steps)))
			} else {
				p.ctl = ifFlow(t, then, els)
			}
			p.deep = max(p.deep, 1+max(then.depth(), els.depth()))
		case regionLoop:
			err = g.compileLoop(p, r)
		}
		if err != nil {
			return parts[:1], err
		}
	}
	return parts, nil
}

// arms compiles the test and the two arms of an If region.
func (g *gen) arms(r *region) (t test, then, els part, err error) {
	if t, err = g.testOf(r.block.Term()); err == nil {
		if then, err = g.compile(r.kids[:r.nthen]); err == nil {
			els, err = g.compile(r.kids[r.nthen:])
		}
	}
	return t, then, els, err
}

// compileLoop compiles a loop into p: a step when it is plain (no exit leaves
// through it), p's control otherwise. Its body starts with the header block;
// when the header's conditional branch is all that follows and one arm does
// nothing but leave the loop (a While), the loop closure tests and leaves
// itself.
func (g *gen) compileLoop(p *part, r *region) error {
	poll := !g.profile && r.block.Instrs[0].Op == wir.OpAbortCheck
	sts, err := g.blockSteps(nil, r.block, poll)
	if err != nil {
		return err
	}
	head, self := seqStep(sts), r.exit
	caught := func(a part) bool { return a.ctl == nil && (a.exit == 0 || a.exit == self || a.exit == exitBreak) }
	var stays evalB
	var stay, leave part
	if rest := r.kids[1:]; len(rest) == 1 && rest[0].kind == regionIf {
		t, then, els, err := g.arms(rest[0])
		if err != nil {
			return err
		}
		leaves := func(a part) bool { return !a.plain() && a.ctl == nil && a.exit != self }
		if stayOn := leaves(els); stayOn || leaves(then) {
			if stays, stay, leave = t.holds(stayOn), els, then; stayOn {
				stay, leave = then, els
			}
		}
	}
	if stays == nil {
		if stay, err = g.compile(r.kids[1:]); err != nil {
			return err
		}
	}
	plain := caught(stay) && caught(leave)
	if leave.exit == exitBreak {
		leave.exit = 0
	}
	loop := loopFlow(self, poll, head, stays, stay, leave)
	deep := 1 + max(seqDepth(len(sts)), stay.depth(), leave.depth())
	if plain {
		p.steps = append(p.steps, func(fr *frame) { loop(fr) })
		deep++
	} else {
		p.ctl = loop
	}
	p.deep = max(p.deep, deep)
	return nil
}

// ---------------------------------------------------------------------------
// wolfc -stage regions

// Regions renders every function's region tree: the nesting of loops, Ifs
// and sequences, the block each node holds, where the abort polls and the phi
// moves sit, which edges leave and where exits land, which chains became
// sum nodes, and which calls are nodes of a tree (and whose operands they
// are: an instruction, the test, the return or the phi of an edge move).
func Regions(mod *wir.Module, opts CompileOptions) (string, error) {
	var sb strings.Builder
	_, err := eachFunction(mod, opts, func(g *gen) error {
		if err := g.prepare(); err != nil {
			return err
		}
		tree, err := g.regions()
		fmt.Fprintf(&sb, "%s\n", g.fn.Name)
		g.printRegions(&sb, tree, "  ")
		return err
	})
	return sb.String(), err
}

func (g *gen) printRegions(sb *strings.Builder, seq []*region, indent string) {
	name := func(b *wir.Block) string { return fmt.Sprintf("%s(%d)", b.Label, b.IDNum+1) }
	for _, r := range seq {
		sb.WriteString(indent)
		if r.label != 0 {
			sb.WriteString("exits land: ")
		}
		switch r.kind {
		case regionBlock:
			fmt.Fprintf(sb, "block %s", name(r.block))
			// A chain's root comes after its interior operators, so reading
			// the block backwards meets it first.
			nodes, interior := "", map[*wir.Instr]bool{}
			for k := len(r.block.Instrs) - 1; k >= 0; k-- {
				in := r.block.Instrs[k]
				if in.Op == wir.OpAbortCheck {
					sb.WriteString(", poll")
				}
				if vals, _ := g.sumChain(in); !interior[in] && len(vals) >= 3 {
					nodes = fmt.Sprintf(", sum %s of %d terms", in.Name(), len(vals)) + nodes
					for l := in; len(vals) > 2; vals = vals[1:] {
						l = l.Args[0].(*wir.Instr)
						interior[l] = true
					}
				}
				if c := g.into[in]; c != nil && g.isCall(in) {
					at := map[wir.Op]string{wir.OpCondBranch: "test", wir.OpReturn: "return"}[c.Op]
					if at == "" {
						at = c.Name()
					}
					nodes = fmt.Sprintf(", call %s in %s", in.Name(), at) + nodes
				}
			}
			sb.WriteString(nodes)
		case regionEdge:
			fmt.Fprintf(sb, "edge %s -> %s", name(r.block), name(r.to))
			if n := len(r.to.Phis); n > 0 {
				fmt.Fprintf(sb, ", %d phi moves", n)
			}
		case regionReturn:
			sb.WriteString("return")
		case regionIf:
			fmt.Fprintf(sb, "if %s\n%s  then\n", name(r.block), indent)
			g.printRegions(sb, r.kids[:r.nthen], indent+"    ")
			fmt.Fprintf(sb, "%s  else\n", indent)
			g.printRegions(sb, r.kids[r.nthen:], indent+"    ")
			continue
		case regionLoop:
			fmt.Fprintf(sb, "loop %s\n", name(r.block))
			g.printRegions(sb, r.kids, indent+"  ")
			continue
		}
		switch {
		case r.exit == exitBreak:
			sb.WriteString(", break")
		case r.exit != 0:
			sb.WriteString(", exit")
		}
		sb.WriteByte('\n')
	}
}
