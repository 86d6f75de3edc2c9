package wir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// runCopies performs steps on regs and reports the registers after them. A
// plain copy's value is its one read; a tree's is a mix of its reads.
func runCopies(copies []Copy[int], steps []CopyStep, regs []int) []int {
	regs = append([]int(nil), regs...)
	value := func(c Copy[int]) int {
		if !c.Tree {
			return regs[c.Reads[0]]
		}
		v := 7
		for _, r := range c.Reads {
			v = v*31 + regs[r]
		}
		return v
	}
	saved := map[int]int{}
	for _, s := range steps {
		c := copies[s.Copy]
		if s.Save {
			saved[s.Copy] = value(c)
		} else if v, ok := saved[s.Copy]; ok {
			regs[c.Dst] = v
		} else {
			regs[c.Dst] = value(c)
		}
	}
	return regs
}

// parallelCopies assigns every copy at once: what an edge means.
func parallelCopies(copies []Copy[int], regs []int) []int {
	steps := make([]CopyStep, 0, 2*len(copies))
	for i := range copies {
		steps = append(steps, CopyStep{Copy: i, Save: true})
	}
	for i := range copies {
		steps = append(steps, CopyStep{Copy: i})
	}
	return runCopies(copies, steps, regs)
}

// checkSteps fails unless steps write every copy once, after at most one
// save, and leave regs as the parallel copy does.
func checkSteps(t *testing.T, copies []Copy[int], steps []CopyStep) {
	t.Helper()
	saves, writes := map[int]int{}, map[int]int{}
	for _, s := range steps {
		if s.Save {
			if writes[s.Copy] > 0 {
				t.Fatalf("%v: copy %d saved after its write: %v", copies, s.Copy, steps)
			}
			saves[s.Copy]++
		} else {
			writes[s.Copy]++
		}
	}
	for i := range copies {
		if saves[i] > 1 || writes[i] != 1 {
			t.Fatalf("%v: copy %d saved %d and written %d times: %v", copies, i, saves[i], writes[i], steps)
		}
	}
	regs := make([]int, 8)
	for i := range regs {
		regs[i] = 100 + i
	}
	if got, want := runCopies(copies, steps, regs), parallelCopies(copies, regs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%v: steps %v leave %v, the parallel copy %v", copies, steps, got, want)
	}
}

func stepString(steps []CopyStep) string {
	var parts []string
	for _, s := range steps {
		if s.Save {
			parts = append(parts, fmt.Sprintf("save %d", s.Copy))
		} else {
			parts = append(parts, fmt.Sprintf("write %d", s.Copy))
		}
	}
	return strings.Join(parts, ", ")
}

func TestSequenceCopies(t *testing.T) {
	const a, b, c = 0, 1, 2
	plain := func(dst, src int) Copy[int] { return Copy[int]{Dst: dst, Reads: []int{src}} }
	tree := func(dst int, reads ...int) Copy[int] { return Copy[int]{Dst: dst, Reads: reads, Tree: true} }
	for _, tc := range []struct {
		name   string
		copies []Copy[int]
		want   string
	}{
		{"chain", []Copy[int]{plain(a, b), plain(b, c)}, "write 0, write 1"},
		{"tree reads its own destination", []Copy[int]{tree(a, a, b)}, "write 0"},
		{"swap", []Copy[int]{plain(a, b), plain(b, a)}, "save 0, write 1, write 0"},
		{"3-cycle", []Copy[int]{plain(a, b), plain(b, c), plain(c, a)}, "save 0, write 1, write 2, write 0"},
		{"tree inside a cycle", []Copy[int]{tree(a, b, c), plain(b, a)}, "save 1, write 0, write 1"},
		{"cycle of trees", []Copy[int]{tree(a, b), tree(b, a)}, "save 0, write 1, write 0"},
		// One save does not free the cycle, and a second save of the same
		// copy would not either: the sequencer must save the next copy.
		{"tangled", []Copy[int]{plain(a, b), plain(b, c), tree(c, a, b)}, "save 0, save 1, write 2, write 0, write 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps := SequenceCopies(tc.copies)
			if got := stepString(steps); got != tc.want {
				t.Errorf("steps %s, want %s", got, tc.want)
			}
			checkSteps(t, tc.copies, steps)
		})
	}
}

// TestSequenceCopiesQuick holds random parallel copies over a few registers,
// each destination written once, to what parallel assignment does.
func TestSequenceCopiesQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for range 5000 {
		locs := 1 + rng.Intn(6)
		var copies []Copy[int]
		for _, dst := range rng.Perm(locs)[:1+rng.Intn(locs)] {
			c := Copy[int]{Dst: dst, Tree: rng.Intn(3) == 0}
			n := 1
			if c.Tree {
				n = rng.Intn(4)
			}
			for range n {
				c.Reads = append(c.Reads, rng.Intn(locs))
			}
			copies = append(copies, c)
		}
		checkSteps(t, copies, SequenceCopies(copies))
	}
}
