package main

import (
	"fmt"
	"io"
	"math/rand"

	"wolfc/internal/core"
	"wolfc/internal/kernel"
)

// fig2 is the run-time half of the paper's Figure 2: each operation is one
// invocation of an already compiled program through CallRaw with the
// default options (abort handling on), followed, outside the timed part,
// by the Go reference on the same input. Programs are visited round-robin
// for the whole window.
type fig2 struct {
	names []string
	binds []bound
	wants []string
}

func newKernel() *kernel.Kernel {
	k := kernel.New()
	k.Out = io.Discard
	k.IterationLimit = 1 << 62
	return k
}

func newFig2(scalar bool, seed int64) (workload, error) {
	w := &fig2{}
	c := core.NewCompiler(newKernel())
	want, err := expectedPrograms()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range programs() {
		v := rng.Intn(p.variants) // drawn for every program so a row's variant does not depend on the group
		if p.scalar != scalar {
			continue
		}
		ccf, err := compileProgram(c, p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		// The small instance ties the compiled code to the interpreter's
		// own answer; the full-size answer in the file is the Go
		// reference's, which -regen-expected checked against the
		// interpreter at the small size.
		small, err := p.bind(c, ccf, v, p.small)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if small.before != nil {
			small.before()
		}
		if got, exp := checksum(small.call()), want[expectedKey(p, v, true)]; got != exp {
			return nil, fmt.Errorf("%s: compiled small instance gives %q, the interpreter gave %q", p.name, got, exp)
		}
		b, err := p.bind(c, ccf, v, p.size)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		exp, ok := want[expectedKey(p, v, false)]
		if !ok {
			return nil, fmt.Errorf("expected/programs.txt has no line for %s", expectedKey(p, v, false))
		}
		w.names = append(w.names, p.name)
		w.binds = append(w.binds, b)
		w.wants = append(w.wants, exp)
	}
	// One untimed visit of every row: first-call allocation growth and lazy
	// runtime initialisation belong to set-up.
	for r := range w.names {
		if _, _, ok := w.op(0, r, nil); !ok {
			return nil, fmt.Errorf("%s: compiled result differs from expected/programs.txt", w.names[r])
		}
		if _, ok := w.ref(r); !ok {
			return nil, fmt.Errorf("%s: Go reference differs from expected/programs.txt", w.names[r])
		}
	}
	return w, nil
}

func (w *fig2) rows() []string { return w.names }
func (w *fig2) clients() int   { return 1 }
func (w *fig2) close()         {}

func (w *fig2) op(c, i int, tr *tracer) (int, int64, bool) {
	row := i % len(w.names)
	b := w.binds[row]
	if b.before != nil {
		b.before()
	}
	var out any
	ns := tr.in("program."+w.names[row], -1, int64(i), func(int) { out = b.call() })
	return row, ns, checksum(out) == w.wants[row]
}

func (w *fig2) ref(row int) (int64, bool) {
	b := w.binds[row]
	if b.before != nil {
		b.before()
	}
	var out any
	ns := timeIt(func() { out = b.ref() })
	return ns, checksum(out) == w.wants[row]
}
