package wir

import "slices"

// A Copy is one move of an edge's parallel copy: it writes Dst with a value
// computed from the locations in Reads. Tree marks a fused expression, which
// is evaluated, rather than copied, into its destination.
type Copy[L comparable] struct {
	Dst   L
	Reads []L
	Tree  bool
}

// A CopyStep is one step of a sequenced parallel copy. Save computes copy
// Copy's value into a fresh temporary, which its write then reads; otherwise
// the step writes copy Copy's destination.
type CopyStep struct {
	Copy int
	Save bool
}

// SequenceCopies orders one edge's parallel copy (Boissinot et al., CGO
// 2009). A copy waits until it is saved or written. Of the copies not yet
// written, the first in order whose destination no other waiting copy reads
// is written next. When there is none, a cycle is broken by saving the first
// waiting plain copy, or else the first waiting copy, in a temporary. A saved
// copy reads nothing and none is saved twice, so the steps always end.
func SequenceCopies[L comparable](copies []Copy[L]) []CopyStep {
	pending := make([]int, len(copies))
	for i := range pending {
		pending[i] = i
	}
	saved := make([]bool, len(copies))
	steps := make([]CopyStep, 0, len(copies)+1)
	free := func(i int) bool {
		for _, j := range pending {
			if j != i && !saved[j] && slices.Contains(copies[j].Reads, copies[i].Dst) {
				return false
			}
		}
		return true
	}
	for len(pending) > 0 {
		if k := slices.IndexFunc(pending, free); k >= 0 {
			steps = append(steps, CopyStep{Copy: pending[k]})
			pending = slices.Delete(pending, k, k+1)
			continue
		}
		k := slices.IndexFunc(pending, func(i int) bool { return !saved[i] && !copies[i].Tree })
		if k < 0 {
			k = slices.IndexFunc(pending, func(i int) bool { return !saved[i] })
		}
		saved[pending[k]] = true
		steps = append(steps, CopyStep{Copy: pending[k], Save: true})
	}
	return steps
}
