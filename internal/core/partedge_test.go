package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
)

// The Part/SetPart edge corpus: the inlined positive in-range path, the
// checked slow path behind it (negative indices), and the range exception
// that reverts to the interpreter must be indistinguishable from
// interpreting the same function — value, error text and the cfse warning
// alike — with fusion on and off. Every element kind a tensor register can
// hold is read and stored at rank 1 and, where the runtime has the accessor,
// at rank 2; "shared" stores through two aliases of the caller's list (each
// copies on its first write), and "map"/"table" run the unchecked accessors
// of a macro-generated loop before the checked ones.

var partEdgePrograms = []struct {
	name, src string
	rank2     bool
	first     string // the first argument; partEdgeList or partEdgeMatrix when empty
}{
	{"read1", `Function[{Typed[v, "Tensor"["Integer64", 1]], Typed[k, "MachineInteger"]}, v[[k]]]`, false, ""},
	{"read1-fused", `Function[{Typed[v, "Tensor"["Integer64", 1]], Typed[k, "MachineInteger"]}, v[[k]]*3 + v[[2]]]`, false, ""},
	{"write1", `Function[{Typed[v, "Tensor"["Integer64", 1]], Typed[k, "MachineInteger"]},
		Module[{w = v}, w[[k]] = 95; w]]`, false, ""},
	{"chain1", `Function[{Typed[v, "Tensor"["Integer64", 1]], Typed[k, "MachineInteger"]},
		Module[{w = v, i = 1}, While[i <= 3, w[[k]] = w[[k]] + w[[-k]] + i; w[[i]] = w[[i]] + 1; i = i + 1]; w]]`, false, ""},
	{"read2", `Function[{Typed[m, "Tensor"["Integer64", 2]], Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]}, m[[i, j]]]`, true, ""},
	{"read2-fused", `Function[{Typed[m, "Tensor"["Integer64", 2]], Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]}, m[[i, j]]*2 + m[[1, 1]]]`, true, ""},
	{"write2", `Function[{Typed[m, "Tensor"["Integer64", 2]], Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]},
		Module[{w = m}, w[[i, j]] = 7; w]]`, true, ""},
	{"chain2", `Function[{Typed[m, "Tensor"["Integer64", 2]], Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]},
		Module[{w = m, r = 1}, While[r <= 2, w[[i, j]] = w[[i, j]] + w[[r, 1]]; w[[r, 2]] = w[[r, 2]]*2; r = r + 1]; w]]`, true, ""},
	{"shared1", `Function[{Typed[v, "Tensor"["Integer64", 1]], Typed[k, "MachineInteger"]},
		Module[{w = v, u = v}, w[[k]] = 95; u[[-k]] = u[[k]] + 1; {w, u, v}]]`, false, ""},
	{"map1", `Function[{Typed[v, "Tensor"["Integer64", 1]], Typed[k, "MachineInteger"]},
		Module[{w = Map[Function[x, x*2 + 1], v]}, w[[k]] = w[[k]] + v[[k]]; w]]`, false, ""},
	{"table1", `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[k, "MachineInteger"]},
		Module[{w = Table[v[[i]] + i, {i, 1, Length[v]}]}, w[[k]]*2. + w[[-k]]]]`, false, partEdgeReals},
	{"real1", `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[k, "MachineInteger"]},
		Module[{w = v}, w[[k]] = w[[k]]*0.5 + 2.*w[[2]] - w[[-k]]; w]]`, false, partEdgeReals},
	{"real1-read", `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[k, "MachineInteger"]}, v[[k]]]`, false, partEdgeReals},
	{"real2", `Function[{Typed[m, "Tensor"["Real64", 2]], Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]},
		Module[{w = m}, w[[i, j]] = w[[i, j]]*0.5 + 2.*w[[1, 1]] - w[[-i, -j]]; w]]`, true, "{{1., 2.}, {3., 4.}, {5., 6.}}"},
	{"real2-read", `Function[{Typed[m, "Tensor"["Real64", 2]], Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]}, m[[i, j]]]`, true, "{{1., 2.}, {3., 4.}, {5., 6.}}"},
	{"complex1", `Function[{Typed[v, "Tensor"["ComplexReal64", 1]], Typed[k, "MachineInteger"]},
		Module[{w = v}, w[[k]] = w[[k]]*2. + v[[2]]; w[[1]] = w[[-k]]; w]]`, false, partEdgeComplexes},
	{"complex1-read", `Function[{Typed[v, "Tensor"["ComplexReal64", 1]], Typed[k, "MachineInteger"]}, v[[k]]]`, false, partEdgeComplexes},
	// No matrix of complexes and no list of booleans crosses the boundary
	// unboxed: these two build theirs.
	{"complex2", `Function[{Typed[z, "ComplexReal64"], Typed[i, "MachineInteger"], Typed[j, "MachineInteger"]},
		Module[{w = ConstantArray[z, {3, 2}]}, w[[2, 1]] = z*z; w[[i, j]] = w[[i, j]]*2. + w[[2, 1]]; w[[1, 2]] = w[[-i, -j]]; w]]`, true, "Complex[1., 2.]"},
	{"bool1", `Function[{Typed[v, "Tensor"["Integer64", 1]], Typed[k, "MachineInteger"]},
		Module[{w = Map[Function[x, x > 15], v]}, w[[k]] = !w[[k]]; If[w[[-k]], w[[1]] = False]; w]]`, false, ""},
	{"string1", `Function[{Typed[v, "Tensor"["String", 1]], Typed[k, "MachineInteger"]},
		Module[{w = v}, w[[k]] = StringJoin[w[[k]], w[[-k]]]; w]]`, false, `{"a", "bc", "d", "ef"}`},
	{"string1-read", `Function[{Typed[v, "Tensor"["String", 1]], Typed[k, "MachineInteger"]}, v[[k]]]`, false, `{"a", "bc", "d", "ef"}`},
}

const (
	partEdgeList      = "{10, 20, 30, 40}"      // n = 4
	partEdgeReals     = "{1.5, 2.5, -3., 4.25}" // n = 4
	partEdgeComplexes = "{Complex[1., 2.], Complex[3., -1.], Complex[0., 1.], Complex[4., 4.]}"
	partEdgeMatrix    = "{{1, 2}, {3, 4}, {5, 6}}" // 3 x 2
	partEdgeN         = 4
	partEdgeRows      = 3
	partEdgeCols      = 2
	partEdgeFuseOn    = "fused"
)

// partEdgeArgs lists the index arguments: 0, ±1, ±n, ±(n+1) for rank 1;
// for rank 2 mixed-sign pairs and a bad index in each dimension separately.
func partEdgeArgs(rank2 bool) [][]string {
	if !rank2 {
		var out [][]string
		for _, k := range []int{0, 1, -1, partEdgeN, -partEdgeN, partEdgeN + 1, -(partEdgeN + 1)} {
			out = append(out, []string{partEdgeList, fmt.Sprint(k)})
		}
		return out
	}
	var out [][]string
	for _, ij := range [][2]int{
		{1, 1}, {partEdgeRows, partEdgeCols}, {-1, -1}, {-partEdgeRows, partEdgeCols}, {2, -partEdgeCols}, {-2, 1},
		{0, 1}, {1, 0}, {partEdgeRows + 1, 1}, {1, partEdgeCols + 1}, {-(partEdgeRows + 1), 1}, {1, -(partEdgeCols + 1)},
	} {
		out = append(out, []string{partEdgeMatrix, fmt.Sprint(ij[0]), fmt.Sprint(ij[1])})
	}
	return out
}

// partOutcome is everything a caller can observe of one application.
type partOutcome struct {
	value, err, printed string
	fellBack            bool
}

func outcomeOf(out expr.Expr, err error, printed string) partOutcome {
	o := partOutcome{printed: printed}
	if out != nil {
		o.value = expr.InputForm(out)
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

func TestPartEdgeCorpusMatchesInterpreter(t *testing.T) {
	configs := fuseConfigs()
	for _, p := range partEdgePrograms {
		fn := parser.MustParse(p.src)
		var first expr.Expr
		if p.first != "" {
			// Evaluated as a caller's argument would be: Complex[1., 2.]
			// unboxes as the complex number, not as the call.
			var err error
			if first, err = kernel.New().EvalGuarded(parser.MustParse(p.first)); err != nil {
				t.Fatal(err)
			}
		}
		for _, args := range partEdgeArgs(p.rank2) {
			ex := make([]expr.Expr, len(args))
			for i, a := range args {
				ex[i] = parser.MustParse(a)
			}
			if first != nil {
				ex[0] = first
			}
			label := fmt.Sprintf("%s%v", p.name, args[1:])

			var ibuf bytes.Buffer
			ik := kernel.New()
			ik.Out = &ibuf
			iout, ierr := ik.EvalGuarded(expr.New(fn, ex...))
			want := outcomeOf(iout, ierr, ibuf.String())

			var fused partOutcome
			for _, name := range []string{partEdgeFuseOn, "unfused", "loopopt-nofuse"} {
				var buf bytes.Buffer
				k := kernel.New()
				k.Out = &buf
				c := NewCompiler(k)
				configs[name](c)
				ccf, err := c.FunctionCompile(fn)
				if err != nil {
					t.Fatalf("%s/%s: compile: %v", label, name, err)
				}
				out, aerr := ccf.Apply(ex)
				got := outcomeOf(out, aerr, buf.String())
				got.fellBack = ccf.Metrics.Snapshot().Fallbacks > 0
				// The interpreter's own output follows the cfse warning.
				_, rest, warned := strings.Cut(got.printed, "\n")
				if got.fellBack != warned || got.fellBack && !strings.HasPrefix(got.printed, "CompiledCodeFunction::cfse") {
					t.Errorf("%s/%s: fallback %v but printed %q", label, name, got.fellBack, got.printed)
				}
				if !got.fellBack {
					rest = got.printed
				}
				if got.value != want.value || got.err != want.err || rest != want.printed {
					t.Errorf("%s/%s: compiled gives (%s, %q, %q), interpreter (%s, %q, %q)",
						label, name, got.value, got.err, rest, want.value, want.err, want.printed)
				}
				if name == partEdgeFuseOn {
					fused = got
				} else if got != fused {
					t.Errorf("%s/%s: %+v differs from fused %+v", label, name, got, fused)
				}
			}
			// An index the interpreter rejects, or resolves specially
			// (v[[0]] is the head), must have gone through the fallback; a
			// plain in-range index, either sign, must not.
			if inRange := want.err == "" && !strings.Contains(strings.Join(args[1:], " "), "0"); inRange == fused.fellBack {
				t.Errorf("%s: fell back = %v, in range = %v", label, fused.fellBack, inRange)
			}
		}
	}
}

// A compiled function that mutates its argument works on a copy: the
// caller's tensor is marked shared at the boundary, the first assignment of
// the chain takes the cold copy-on-write branch, and every later one stores
// in place.
func TestCompiledMutationLeavesCallerTensorAlone(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Module[{w = v, i = 1}, While[i <= Length[w], w[[i]] = w[[i]]*2. + 1.; i = i + 1]; w]]`)
	arg := runtime.NewTensor(runtime.KR64, 5)
	for i := range arg.F {
		arg.F[i] = float64(i)
	}
	arg.MarkShared()
	before := append([]float64{}, arg.F...)
	out := ccf.CallRaw(arg).(*runtime.Tensor)
	if out == arg {
		t.Fatal("shared argument was mutated in place")
	}
	for i, x := range before {
		if arg.F[i] != x {
			t.Fatalf("caller's element %d changed: %v -> %v", i, x, arg.F[i])
		}
		if out.F[i] != x*2+1 {
			t.Fatalf("result element %d = %v, want %v", i, out.F[i], x*2+1)
		}
	}
	if out.IsShared() {
		t.Fatal("result should arrive private")
	}
	// The same through the boxed boundary, where the interpreter's list is
	// the caller's value.
	if got := apply(t, ccf, "{1., 2.}"); got != "{3., 5.}" {
		t.Fatalf("boxed call = %s", got)
	}
}

// An abort in the middle of a mutation loop unwinds with the caller's
// argument exactly as it was passed.
func TestAbortMidMutationLeavesCallerTensorAlone(t *testing.T) {
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[v, "Tensor"["Integer64", 1]]},
		Module[{w = v, i = 1}, While[i >= 1, w[[1 + Mod[i, 4]]] = i; i = Mod[i, 1000] + 1]; w]]`)
	arg := runtime.NewTensor(runtime.KI64, 4)
	arg.MarkShared()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		ccf.CallRaw(arg)
	}()
	time.Sleep(30 * time.Millisecond)
	c.Kernel.Abort()
	defer c.Kernel.ClearAbort()
	select {
	case r := <-done:
		if exc, ok := r.(*runtime.Exception); !ok || exc.Kind != runtime.ExcAbort {
			t.Fatalf("mutation loop ended with %v, want the abort exception", r)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mutation loop did not notice the abort")
	}
	for i, x := range arg.I {
		if x != 0 {
			t.Fatalf("caller's element %d changed to %d", i, x)
		}
	}
}

// Tensor phi webs: swaps, a value kept from before a loop that mutates its
// successor, merges after an If, nested loops. Coalescing may put several of
// these values in one register only where their live ranges never overlap;
// each program must compute what the interpreter computes, in every fusion
// configuration.
func TestTensorPhiWebsMatchInterpreter(t *testing.T) {
	srcs := []string{
		// swap two tensors each trip while mutating one of them
		`Function[{Typed[v, "Tensor"["Real64", 1]], Typed[n, "MachineInteger"]},
			Module[{a = v, b = v, tmp = v, i = 1},
				While[i <= n, tmp = a; a = b; b = tmp; a[[1]] = a[[1]] + 1.; b[[2]] = b[[2]]*2.; i = i + 1];
				a[[1]]*100. + b[[1]]*10. + a[[2]] + b[[2]]]]`,
		// the pre-loop value outlives the loop that mutates its copy
		`Function[{Typed[v, "Tensor"["Real64", 1]], Typed[n, "MachineInteger"]},
			Module[{old = v, w = v, i = 1},
				While[i <= n, w[[i]] = w[[i]] + old[[1]]; i = i + 1];
				{old[[1]], w[[1]], old[[2]], w[[2]]}]]`,
		// the value from the previous trip is read after this trip's store
		`Function[{Typed[v, "Tensor"["Real64", 1]], Typed[n, "MachineInteger"]},
			Module[{w = v, prev = v, s = 0., i = 1},
				While[i <= n, prev = w; w[[1]] = w[[1]] + 1.; s = s + prev[[1]]*10. + w[[1]]; i = i + 1];
				s]]`,
		// merge after a one-armed If inside a loop (the qsort shape)
		`Function[{Typed[v, "Tensor"["Real64", 1]], Typed[n, "MachineInteger"]},
			Module[{a = v, i = 1, t = 0.},
				While[i < n, If[a[[i]] > a[[i + 1]], t = a[[i]]; a[[i]] = a[[i + 1]]; a[[i + 1]] = t]; i = i + 1];
				a]]`,
		// two-armed If choosing which tensor continues
		`Function[{Typed[v, "Tensor"["Real64", 1]], Typed[c, "Boolean"]},
			Module[{a = v, b = v, r = v},
				a[[1]] = 5.; b[[1]] = 6.;
				If[c, r = a, r = b];
				r[[2]] = 7.;
				{a[[1]], a[[2]], b[[1]], b[[2]], r[[1]], r[[2]]}]]`,
		// nested loops carrying one matrix
		`Function[{Typed[n, "MachineInteger"]},
			Module[{m = ConstantArray[1, {n, n}], i = 1, j = 1},
				While[i <= n, j = 1; While[j <= n, m[[i, j]] = m[[i, j]] + i*10 + j; j = j + 1]; i = i + 1];
				m]]`,
		// a fresh tensor per trip replaces the carried one
		`Function[{Typed[n, "MachineInteger"]},
			Module[{acc = ConstantArray[0, 3], i = 1},
				While[i <= n, acc = ConstantArray[i, 3]; acc[[2]] = acc[[2]] + 1; i = i + 1];
				acc]]`,
	}
	argsFor := func(src string) []string {
		switch {
		case strings.Contains(src, `Typed[c, "Boolean"]`):
			return []string{"{1., 2., 3.}", "True"}
		case strings.Contains(src, `Typed[v,`):
			return []string{"{4., 3., 2., 1.}", "4"}
		}
		return []string{"3"}
	}
	for i, src := range srcs {
		args := argsFor(src)
		ex := make([]expr.Expr, len(args))
		for j, a := range args {
			ex[j] = parser.MustParse(a)
		}
		k := kernel.New()
		want, err := k.EvalGuarded(expr.New(parser.MustParse(src), ex...))
		if err != nil {
			t.Fatalf("program %d: interpreter: %v", i, err)
		}
		for name, cfg := range fuseConfigs() {
			got, err := runConfig(t, cfg, src, args)
			if err != nil || got != expr.InputForm(want) {
				t.Errorf("program %d/%s = %s (%v), interpreter %s\n%s", i, name, got, err, expr.InputForm(want), src)
			}
		}
		if strings.Contains(src, `Typed[c, "Boolean"]`) {
			args[1] = "False"
			want, _ := k.EvalGuarded(expr.New(parser.MustParse(src), parser.MustParse(args[0]), parser.MustParse("False")))
			if got, err := runConfig(t, fuseConfigs()["fused"], src, args); err != nil || got != expr.InputForm(want) {
				t.Errorf("program %d/False = %s (%v), interpreter %s", i, got, err, expr.InputForm(want))
			}
		}
	}
}
