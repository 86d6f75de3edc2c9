package wir

import (
	"fmt"

	"wolfc/internal/expr"
)

// SSA construction in the style of Braun et al. (paper §4.3 cites simple
// and efficient SSA construction): variables are numbered per block with
// incomplete phis in unsealed blocks; lowering goes straight to SSA with no
// stack-slot round trip.

type ssaBuilder struct {
	fn   *Function
	defs map[*Block]map[*expr.Symbol]Value
}

func newSSABuilder(fn *Function) *ssaBuilder {
	return &ssaBuilder{fn: fn, defs: map[*Block]map[*expr.Symbol]Value{}}
}

func (s *ssaBuilder) write(b *Block, sym *expr.Symbol, v Value) {
	m := s.defs[b]
	if m == nil {
		m = map[*expr.Symbol]Value{}
		s.defs[b] = m
	}
	m[sym] = v
}

func (s *ssaBuilder) read(b *Block, sym *expr.Symbol) (Value, error) {
	if v, ok := s.defs[b][sym]; ok {
		return v, nil
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
		sym, _ := phi.Props["var"].(*expr.Symbol)
		if b.incompletePhis[sym] != phi {
			continue
		}
		if err := s.addPhiOperands(phi, sym); err != nil {
			return err
		}
	}
	b.incompletePhis = map[*expr.Symbol]*Instr{}
	return nil
}

// RemoveTrivialPhis cleans up phis whose operands are all identical (or the
// phi itself), iterating to a fixed point. Run after construction.
func RemoveTrivialPhis(f *Function) {
	for {
		changed := false
		for _, b := range f.Blocks {
			kept := b.Phis[:0]
			for _, phi := range b.Phis {
				if same := trivialPhiValue(phi); same != nil {
					replaceUses(f, phi, same)
					changed = true
					continue
				}
				kept = append(kept, phi)
			}
			b.Phis = kept
		}
		if !changed {
			return
		}
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

// replaceUses rewrites every operand equal to old with new throughout f.
func replaceUses(f *Function, old, new Value) {
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			for i, a := range phi.Args {
				if a == old {
					phi.Args[i] = new
				}
			}
		}
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
				}
			}
		}
	}
}
