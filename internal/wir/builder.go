package wir

import (
	"fmt"
	"slices"

	"wolfc/internal/expr"
)

// SSA construction in the style of Braun et al. (paper §4.3 cites simple
// and efficient SSA construction): variables are numbered per block with
// incomplete phis in unsealed blocks; lowering goes straight to SSA with no
// stack-slot round trip.

type ssaBuilder struct {
	fn *Function
	// defs holds each block's current definitions, indexed by the block's
	// IDNum (its creation index): a block defines a handful of variables, so
	// a short list beats a table keyed by block and variable.
	defs [][]varDef
}

type varDef struct {
	sym *expr.Symbol
	v   Value
}

func newSSABuilder(fn *Function) *ssaBuilder {
	return &ssaBuilder{fn: fn}
}

func (s *ssaBuilder) write(b *Block, sym *expr.Symbol, v Value) {
	for len(s.defs) <= b.IDNum {
		s.defs = append(s.defs, nil)
	}
	ds := s.defs[b.IDNum]
	for i := range ds {
		if ds[i].sym == sym {
			ds[i].v = v
			return
		}
	}
	if ds == nil {
		ds = make([]varDef, 0, 4)
	}
	s.defs[b.IDNum] = append(ds, varDef{sym, v})
}

func (s *ssaBuilder) read(b *Block, sym *expr.Symbol) (Value, error) {
	if b.IDNum < len(s.defs) {
		for _, d := range s.defs[b.IDNum] {
			if d.sym == sym {
				return d.v, nil
			}
		}
	}
	return s.readRecursive(b, sym)
}

func (s *ssaBuilder) readRecursive(b *Block, sym *expr.Symbol) (Value, error) {
	var v Value
	switch {
	case !b.sealed:
		// Incomplete CFG: place an operand-less phi to be filled at seal.
		phi := s.fn.newInstr(OpPhi)
		phi.Block = b
		phi.SetProp("var", sym)
		b.Phis = append(b.Phis, phi)
		if b.incompletePhis == nil {
			b.incompletePhis = map[*expr.Symbol]*Instr{}
		}
		b.incompletePhis[sym] = phi
		v = phi
	case len(b.Preds) == 0:
		return nil, fmt.Errorf("variable %s read before assignment", sym.Name)
	case len(b.Preds) == 1:
		pv, err := s.read(b.Preds[0], sym)
		if err != nil {
			return nil, err
		}
		v = pv
	default:
		phi := s.fn.newInstr(OpPhi)
		phi.Block = b
		phi.SetProp("var", sym)
		b.Phis = append(b.Phis, phi)
		s.write(b, sym, phi) // break cycles before recursing
		if err := s.addPhiOperands(phi, sym); err != nil {
			return nil, err
		}
		v = phi
	}
	s.write(b, sym, v)
	return v, nil
}

func (s *ssaBuilder) addPhiOperands(phi *Instr, sym *expr.Symbol) error {
	b := phi.Block
	for _, pred := range b.Preds {
		pv, err := s.read(pred, sym)
		if err != nil {
			return err
		}
		phi.Args = append(phi.Args, pv)
	}
	return nil
}

// seal marks a block's predecessor list final and completes pending phis.
func (s *ssaBuilder) seal(b *Block) error {
	if b.sealed {
		return nil
	}
	b.sealed = true
	// In creation order, not map order: completing a phi can create phis in
	// other blocks, and their numbering must not differ from one compile of a
	// source to the next. Phis appended to b meanwhile are already complete.
	for i, n := 0, len(b.Phis); i < n; i++ {
		phi := b.Phis[i]
		v, _ := phi.Prop("var")
		sym, _ := v.(*expr.Symbol)
		if b.incompletePhis[sym] != phi {
			continue
		}
		if err := s.addPhiOperands(phi, sym); err != nil {
			return err
		}
	}
	b.incompletePhis = nil
	return nil
}

// RemoveTrivialPhis cleans up phis whose operands are all identical (or the
// phi itself), iterating to a fixed point. Run after construction.
func RemoveTrivialPhis(f *Function) {
	var sub Subst
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			b.Phis = slices.DeleteFunc(b.Phis, func(phi *Instr) bool {
				sub.Args(phi)
				same := trivialPhiValue(phi)
				if same != nil {
					sub.Replace(phi, same)
					changed = true
				}
				return same != nil
			})
		}
	}
	sub.Apply(f)
}

// RemoveDeadPhis deletes every phi that nothing reads but other such phis:
// the unused value of an If with no else arm, which joins a Null that has no
// value of the phi's type, or a variable a loop assigns and never reads. A
// phi is live when an instruction reads it or a live phi does. Lower runs it,
// so no backend at any level moves a value into a phi nothing reads.
func RemoveDeadPhis(f *Function) {
	live := make([]bool, f.nextID+1)
	var work []*Instr
	mark := func(in *Instr) {
		for _, a := range in.Args {
			if p, ok := a.(*Instr); ok && p.Op == OpPhi && !live[p.IDNum] {
				live[p.IDNum] = true
				work = append(work, p)
			}
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			mark(in)
		}
	}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		mark(p)
	}
	for _, b := range f.Blocks {
		b.Phis = slices.DeleteFunc(b.Phis, func(p *Instr) bool { return !live[p.IDNum] })
	}
}

// trivialPhiValue returns the unique non-self operand if the phi is
// trivial, else nil.
func trivialPhiValue(phi *Instr) Value {
	var same Value
	for _, a := range phi.Args {
		if a == Value(phi) {
			continue
		}
		if same != nil && a != same {
			return nil
		}
		same = a
	}
	return same
}

// Subst is a forwarding table for the values a pass replaces: the pass
// records old → new, reads the operands it inspects through the table (so a
// replacement is seen by everything after it in the same sweep), and rewrites
// the function once at the end, instead of scanning the whole function per
// replacement. The zero value is an empty table.
type Subst struct{ to map[*Instr]Value }

// Replace records that every use of old reads new from now on. The table
// maps to values it does not forward, so it holds no cycle.
func (s *Subst) Replace(old *Instr, new Value) {
	if new = s.Of(new); new == Value(old) {
		return
	}
	if s.to == nil {
		s.to = map[*Instr]Value{}
	}
	s.to[old] = new
}

// Of returns what v stands for after the replacements recorded so far.
func (s *Subst) Of(v Value) Value {
	for len(s.to) > 0 {
		in, _ := v.(*Instr)
		next, ok := s.to[in]
		if !ok {
			return v
		}
		v = next
	}
	return v
}

// Args rewrites in's operands through the table.
func (s *Subst) Args(in *Instr) {
	for i, a := range in.Args {
		if n := s.Of(a); n != a {
			in.Args[i] = n
		}
	}
}

// Apply rewrites every operand in f through the table and empties it.
func (s *Subst) Apply(f *Function) {
	if len(s.to) > 0 {
		f.Each(s.Args)
		clear(s.to)
	}
}
