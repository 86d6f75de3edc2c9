package passes

import (
	"math"
	"strings"
	"testing"

	"wolfc/internal/binding"
	"wolfc/internal/expr"
	"wolfc/internal/infer"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// buildTWIR compiles source to a typed module without running passes.
func buildTWIR(t *testing.T, src string) *wir.Module {
	t.Helper()
	mod := buildWIR(t, src)
	if err := infer.Infer(mod, types.Builtin()); err != nil {
		t.Fatalf("infer: %v", err)
	}
	return mod
}

// buildWIR lowers source to an untyped module.
func buildWIR(t *testing.T, src string) *wir.Module {
	t.Helper()
	env := macro.DefaultEnv()
	e, err := env.Expand(parser.MustParse(src), nil)
	if err != nil {
		t.Fatalf("macro: %v", err)
	}
	e = macro.ExpandSlots(e)
	res, err := binding.Analyze(e)
	if err != nil {
		t.Fatalf("binding: %v", err)
	}
	mod, err := wir.Lower(res, types.Builtin())
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return mod
}

func countInstrs(f *wir.Function, pred func(*wir.Instr) bool) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if pred(in) {
				n++
			}
		}
	}
	return n
}

func TestDominators(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]`)
	f := mod.Main()
	c := Analyze(f)
	for i, b := range f.Blocks {
		if c.RPO[i] < 0 {
			t.Fatalf("block %s unreachable", b.Label)
		}
		if !c.Dominates(0, i) {
			t.Fatalf("entry must dominate %s", b.Label)
		}
	}
	// The loop header dominates the body and the exit.
	head, body, exit := -1, -1, -1
	for i, b := range f.Blocks {
		switch b.Label {
		case "while_head":
			head = i
		case "while_body":
			body = i
		case "while_exit":
			exit = i
		}
	}
	if head < 0 || !c.Dominates(head, body) || !c.Dominates(head, exit) {
		t.Fatal("loop header must dominate body and exit")
	}
	if c.Dominates(body, head) {
		t.Fatal("body must not dominate the header")
	}
}

func TestLoopHeaders(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1, j = 1},
			While[i <= n,
				j = 1;
				While[j <= n, s = s + 1; j = j + 1];
				i = i + 1];
			s]]`)
	f := mod.Main()
	heads := 0
	for _, h := range Analyze(f).Header {
		if h {
			heads++
		}
	}
	if loops := FindLoops(f); heads != 2 || len(loops) != 2 {
		t.Fatalf("want 2 loop headers and loops (nested loops), got %d and %d", heads, len(loops))
	}
}

func TestAbortInsertion(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{i = 0}, While[i < n, i = i + 1]; i]]`)
	InsertAbortChecks(mod)
	f := mod.Main()
	checks := countInstrs(f, func(in *wir.Instr) bool { return in.Op == wir.OpAbortCheck })
	// Prologue + loop header (paper §4.5).
	if checks != 2 {
		t.Fatalf("abort checks = %d, want 2 (prologue + loop header):\n%s", checks, f.String())
	}
	// The header check precedes the loop condition.
	for _, b := range f.Blocks {
		if b.Label == "while_head" {
			if b.Instrs[0].Op != wir.OpAbortCheck {
				t.Fatal("loop header check must be first")
			}
		}
	}
}

func TestDCE(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[x, "Real64"]},
		Module[{unused = Sin[x]*Cos[x]}, x + 1.]]`)
	f := mod.Main()
	before := countInstrs(f, func(in *wir.Instr) bool { return in.Op == wir.OpCall })
	if !DCE(f) {
		t.Fatal("DCE should remove the dead Sin/Cos/Times chain")
	}
	after := countInstrs(f, func(in *wir.Instr) bool { return in.Op == wir.OpCall })
	if after >= before {
		t.Fatalf("DCE did not shrink: %d -> %d", before, after)
	}
	// The live Plus remains.
	if countInstrs(f, func(in *wir.Instr) bool { return in.Callee == "Plus" }) != 1 {
		t.Fatal("live Plus must survive")
	}
	if countInstrs(f, func(in *wir.Instr) bool { return in.Callee == "Sin" }) != 0 {
		t.Fatal("dead Sin must be removed")
	}
}

// TestDCEKeepsEffects holds an unused effectful call in place, under DCE
// alone and under the whole O2 pipeline, one row per effectful family: Part
// stores, a pattern miss (which throws to the interpreter on purpose), RNG
// draws, a kernel call and symbolic arithmetic. Each row fails when its
// native's library row is declared Throws instead of Effectful.
func TestDCEKeepsEffects(t *testing.T) {
	for _, row := range []struct{ src, callee string }{
		{`Function[{Typed[v, "Tensor"["Real64", 1]]}, Module[{w = v}, w[[1]] = 2.; 0]]`, "Native`SetPart"},
		{`Function[{Typed[v, "Tensor"["Real64", 1]]}, Module[{w = v}, Native` + "`" + `SetPartUnsafe[w, 1, 2.]; 0]]`, "Native`SetPartUnsafe"},
		{"Function[{Typed[x, \"Integer64\"]}, Compile`PatternMiss[x]; x + 1]", "Compile`PatternMiss"},
		{"Function[{Typed[x, \"Integer64\"]}, Native`RandomReal01[]; x]", "Native`RandomReal01"},
		{"Function[{Typed[x, \"Integer64\"]}, Native`RandomIntegerRange[1, x]; x]", "Native`RandomIntegerRange"},
		{"Function[{Typed[e, \"Expression\"]}, Native`KernelCall[e]; e]", "Native`KernelCall"},
		{`Function[{Typed[a, "Expression"], Typed[b, "Expression"]}, a + b; a]`, "Plus"},
	} {
		is := func(in *wir.Instr) bool { return in.Callee == row.callee }
		mod := buildTWIR(t, row.src)
		DCE(mod.Main())
		if n := countInstrs(mod.Main(), is); n != 1 {
			t.Errorf("%s: %d %s calls after DCE, want 1", row.src, n, row.callee)
		}
		mod = buildTWIR(t, row.src)
		if err := RunPipeline(mod, &Context{Env: types.Builtin(), Opts: DefaultOptions()}); err != nil {
			t.Fatal(err)
		}
		if n := countInstrs(mod.Main(), is); n != 1 {
			t.Errorf("%s: %d %s calls after the O2 pipeline, want 1:\n%s", row.src, n, row.callee, mod.Main())
		}
	}
}

func TestConstantFolding(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[x, "Real64"]}, x + (2.*3. + 4.)]`)
	f := mod.Main()
	for round := 0; round < 3; round++ {
		FoldConstants(f)
		DCE(f)
	}
	calls := countInstrs(f, func(in *wir.Instr) bool { return in.Op == wir.OpCall })
	// Only the final x + 10. survives.
	if calls != 1 {
		t.Fatalf("after folding want 1 call, got %d:\n%s", calls, f.String())
	}
	if !strings.Contains(f.String(), "10.") {
		t.Fatalf("folded constant missing:\n%s", f.String())
	}
}

func TestFoldingRespectsOverflow(t *testing.T) {
	// An overflowing constant product must be left for the runtime's checked
	// arithmetic (soft failure, F2). MinInt64 * -1 is the edge a division
	// test (p/b != a) misses.
	for _, product := range []string{
		`4611686018427387904*4`,
		`(-9223372036854775807 - 1)*(-1)`,
		`(-1)*(-9223372036854775807 - 1)`,
	} {
		mod := buildTWIR(t, `Function[{Typed[x, "MachineInteger"]}, x + `+product+`]`)
		f := mod.Main()
		for round := 0; round < 3; round++ {
			FoldConstants(f)
			DCE(f) // a folded instruction stays in its block until it is swept
		}
		if countInstrs(f, func(in *wir.Instr) bool { return in.Callee == "Times" }) != 1 {
			t.Errorf("overflowing constant multiply %s must not fold:\n%s", product, f.String())
		}
	}
}

func TestFoldingComparesIntegersExactly(t *testing.T) {
	// 2^53+1 and 2^53 are one float64: an integer compare folded through
	// float64 calls them equal.
	for _, c := range []struct {
		cond string
		want bool
	}{
		{`9007199254740993 == 9007199254740992`, false},
		{`9007199254740993 != 9007199254740992`, true},
		{`9007199254740993 > 9007199254740992`, true},
		{`9007199254740993 <= 9007199254740992`, false},
		{`9223372036854775807 > 9223372036854775806`, true},
	} {
		mod := buildTWIR(t, `Function[{Typed[x, "MachineInteger"]}, If[`+c.cond+`, 1, 0] + x]`)
		f := mod.Main()
		FoldConstants(f)
		folded := 0
		for _, b := range f.Blocks {
			if term := b.Term(); term != nil && term.Op == wir.OpCondBranch {
				v, ok := constValue(term.Args[0])
				if !ok {
					t.Errorf("%s did not fold:\n%s", c.cond, f.String())
				} else if v != c.want {
					t.Errorf("%s folded to %v, want %v", c.cond, v, c.want)
				}
				folded++
			}
		}
		if folded != 1 {
			t.Errorf("%s: want one conditional branch, found %d", c.cond, folded)
		}
	}
}

func TestDeadBranchDeletion(t *testing.T) {
	// A statically-false condition after folding: SCCP-style dead-branch
	// deletion removes the untaken side.
	mod := buildTWIR(t, `Function[{Typed[x, "Real64"]},
		If[1. > 2., Sin[x], Cos[x]]]`)
	f := mod.Main()
	for round := 0; round < 3; round++ {
		FoldConstants(f)
		SimplifyBranches(f)
		RemoveUnreachable(mod)
		DCE(f)
	}
	if countInstrs(f, func(in *wir.Instr) bool { return in.Callee == "Sin" }) != 0 {
		t.Fatalf("dead branch must be deleted:\n%s", f.String())
	}
	if countInstrs(f, func(in *wir.Instr) bool { return in.Callee == "Cos" }) != 1 {
		t.Fatalf("live branch must survive:\n%s", f.String())
	}
	if err := mod.Lint(); err != nil {
		t.Fatal(err)
	}
}

func TestCSE(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[x, "Real64"]},
		Sin[x]*Sin[x] + Sin[x]]`)
	f := mod.Main()
	if countInstrs(f, func(in *wir.Instr) bool { return in.Callee == "Sin" }) != 3 {
		t.Fatalf("expected 3 Sin calls before CSE:\n%s", f.String())
	}
	if !CSE(f) {
		t.Fatal("CSE should deduplicate Sin[x]")
	}
	if got := countInstrs(f, func(in *wir.Instr) bool { return in.Callee == "Sin" }); got != 1 {
		t.Fatalf("after CSE want 1 Sin, got %d:\n%s", got, f.String())
	}
	if err := mod.Lint(); err != nil {
		t.Fatal(err)
	}
}

func TestCSERespectsDominance(t *testing.T) {
	// Sin[x] in both branches of an If: neither dominates the other, so no
	// naive dedup across them (hoisting is a different pass).
	mod := buildTWIR(t, `Function[{Typed[x, "Real64"], Typed[p, "Boolean"]},
		If[p, Sin[x] + 1., Sin[x] + 2.]]`)
	f := mod.Main()
	CSE(f)
	if got := countInstrs(f, func(in *wir.Instr) bool { return in.Callee == "Sin" }); got != 2 {
		t.Fatalf("cross-branch CSE is unsound; want 2 Sin, got %d", got)
	}
}

func TestCSEDoesNotMergeRandom(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[x, "Real64"]},
		RandomReal[{0., 1.}] + RandomReal[{0., 1.}]]`)
	f := mod.Main()
	CSE(f)
	if got := countInstrs(f, func(in *wir.Instr) bool {
		return in.Callee == "Native`RandomRealRange"
	}); got != 2 {
		t.Fatalf("random calls must not merge; got %d", got)
	}
}

func TestInlinePolicy(t *testing.T) {
	src := `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Map[Function[{x}, x*2.], v]]`
	for _, policy := range []string{"auto", "none"} {
		mod := buildTWIR(t, src)
		ResolveIndirectCalls(mod)
		Inline(mod, policy)
		indirectOrDirect := countInstrs(mod.Main(), func(in *wir.Instr) bool {
			return in.Op == wir.OpCallIndirect || (in.Op == wir.OpCall && in.ResolvedFn != nil)
		})
		if policy == "auto" && indirectOrDirect != 0 {
			t.Fatalf("auto inlining should remove the lambda call, %d remain", indirectOrDirect)
		}
		if policy == "none" && indirectOrDirect == 0 {
			t.Fatal("policy none must keep the call")
		}
		if err := mod.Lint(); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
	}
}

func TestCopyInsertionOnAlias(t *testing.T) {
	// w = v (same SSA value); mutation with v still live needs a copy.
	mod := buildTWIR(t, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Module[{w = v}, w[[1]] = 9.; w[[1]] + v[[1]]]]`)
	InsertCopies(mod, DefaultOptions())
	if countInstrs(mod.Main(), func(in *wir.Instr) bool { return in.Callee == "Native`Copy" }) != 1 {
		t.Fatalf("aliased mutation needs a copy:\n%s", mod.Main().String())
	}
}

func TestCopyElisionOnDeadAlias(t *testing.T) {
	// The tensor value dies at the SetPart (rebinding), so no copy.
	mod := buildTWIR(t, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Module[{w = v}, w[[1]] = 9.; w]]`)
	InsertCopies(mod, DefaultOptions())
	if countInstrs(mod.Main(), func(in *wir.Instr) bool { return in.Callee == "Native`Copy" }) != 0 {
		t.Fatalf("no-alias mutation must not copy:\n%s", mod.Main().String())
	}
}

// refCountSrcs exercise each rule of the ownership discipline: native
// results, parameters, Part-assignment chains through loops and Ifs,
// values dying along one arm of a branch, closures and compiled callees,
// strings, and a constant operand.
var refCountSrcs = []string{
	`Function[{Typed[n, "MachineInteger"]}, Table[i, {i, 1, n}]]`,
	`Function[{Typed[data, "Tensor"["Integer64", 1]]},
		Module[{bins = ConstantArray[0, 256], i = 1, n = Length[data], b = 0},
			While[i <= n, b = data[[i]] + 1; bins[[b]] = bins[[b]] + 1; i = i + 1];
			bins]]`,
	`Function[{Typed[v, "Tensor"["Real64", 1]], Typed[c, "Boolean"]},
		Module[{w = v, s = 0.}, If[c, w[[1]] = 2.; s = w[[1]]]; s + v[[1]]]]`,
	`Function[{Typed[v, "Tensor"["Real64", 1]], Typed[k, "MachineInteger"]},
		Module[{a = v, i = 1}, While[i <= k, If[a[[i]] > 0., a[[i]] = 0.]; i = i + 1]; a]]`,
	`Function[{Typed[v, "Tensor"["Real64", 1]]}, v]`,
	`Function[{Typed[v, "Tensor"["Real64", 1]]}, Fold[Function[{a, b}, a + b], 0., v]]`,
	`Function[{Typed[v, "Tensor"["Real64", 1]]}, Map[Function[{x}, x + 1.], v]]`,
	`Function[{Typed[n, "MachineInteger"]}, NestList[# + 1 &, 0, n]]`,
	`Function[{Typed[s, "String"], Typed[c, "Boolean"]}, If[c, StringLength[s], 0]]`,
	`Function[{Typed[k, "MachineInteger"]}, Module[{v = {1, 2, 3}}, v[[k]] = 7; v]]`,
	`Function[{Typed[n, "MachineInteger"]},
		Module[{m = ConstantArray[1.5, {n, n}], i = 1}, While[i <= n, m[[i, i]] = 0.; i++]; m]]`,
}

func TestRefCountsBalanceOnEveryPath(t *testing.T) {
	tenv := types.Builtin()
	for _, src := range refCountSrcs {
		for _, level := range []int{0, 1, 2} {
			mod := buildTWIR(t, src)
			opts := DefaultOptions()
			opts.OptimizationLevel = level
			if err := RunPipeline(mod, &Context{Env: tenv, Opts: opts, VerifyEach: true}); err != nil {
				t.Fatalf("O%d %s: %v\n%s", level, src, err, mod.String())
			}
			InsertRefCounts(mod, tenv)
			if err := mod.Lint(); err != nil {
				t.Fatalf("O%d %s: counting broke SSA: %v\n%s", level, src, err, mod.String())
			}
			if err := VerifyRefCounts(mod, tenv); err != nil {
				t.Fatalf("O%d %s: %v\n%s", level, src, err, mod.String())
			}
		}
	}
}

// A mutation chain touches no count: the Part assignment hands its
// operand's reference to its result, and the loop-carried phi takes it over
// on the back edge.
func TestRefCountsStayOutOfMutationLoops(t *testing.T) {
	mod := buildTWIR(t, refCountSrcs[1])
	if err := RunPipeline(mod, &Context{Env: types.Builtin(), Opts: DefaultOptions()}); err != nil {
		t.Fatal(err)
	}
	InsertRefCounts(mod, types.Builtin())
	f := mod.Main()
	loops := FindLoops(f)
	if len(loops) == 0 {
		t.Fatalf("no loop:\n%s", f.String())
	}
	for _, l := range loops {
		for b := range l.Body {
			for _, in := range b.Instrs {
				if n := in.NativeName(); n == "memory_acquire" || n == "memory_release" {
					t.Fatalf("%s inside the loop (%s):\n%s", n, b.Label, f.String())
				}
			}
		}
	}
	if n := countInstrs(f, func(in *wir.Instr) bool { return in.NativeName() == "list_fill" }); n != 1 {
		t.Fatalf("ConstantArray should be one list_fill, got %d:\n%s", n, f.String())
	}
}

// A call bound to a module function by name, as the baseline configuration
// leaves it (it runs no pass that records ResolvedFn), is a direct call and
// returns an owned value, as a resolved one does: counting places the same
// operations for both.
func TestRefCountsTreatNamedModuleCallAsDirect(t *testing.T) {
	tenv := types.Builtin()
	counted := func(resolve bool) string {
		mod := &wir.Module{}
		mod.Adopt(buildWIR(t, `Function[{Typed[n, "MachineInteger"]}, Length[g[n]] + Length[g[n + 1]]]`), "Main")
		g := mod.Adopt(buildWIR(t, `Function[{Typed[k, "MachineInteger"]}, ConstantArray[1.5, k]]`), "g")
		if err := infer.Infer(mod, tenv); err != nil {
			t.Fatal(err)
		}
		calls := 0
		for _, b := range mod.Main().Blocks {
			for _, in := range b.Instrs {
				if in.Op == wir.OpCall && in.Callee == "g" {
					calls++
					if kind := in.CallKind(); kind != "direct" {
						t.Fatalf("the call to g is %q, want direct", kind)
					}
					if resolve {
						in.ResolvedFn = g
					}
				}
			}
		}
		if calls != 2 {
			t.Fatalf("%d calls to g, want 2:\n%s", calls, mod.String())
		}
		InsertRefCounts(mod, tenv)
		if err := VerifyRefCounts(mod, tenv); err != nil {
			t.Fatalf("%v\n%s", err, mod.String())
		}
		return mod.String()
	}
	if byName, resolved := counted(false), counted(true); byName != resolved {
		t.Fatalf("counted by name:\n%s\nresolved:\n%s", byName, resolved)
	}
}

func TestVerifyRefCountsCatchesImbalance(t *testing.T) {
	tenv := types.Builtin()
	build := func() *wir.Module {
		mod := buildTWIR(t, refCountSrcs[1])
		if err := RunPipeline(mod, &Context{Env: tenv, Opts: DefaultOptions()}); err != nil {
			t.Fatal(err)
		}
		InsertRefCounts(mod, tenv)
		if err := VerifyRefCounts(mod, tenv); err != nil {
			t.Fatalf("counted pipeline output must verify: %v", err)
		}
		return mod
	}
	find := func(f *wir.Function, native string) (*wir.Block, int) {
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.NativeName() == native {
					return b, i
				}
			}
		}
		t.Fatalf("no %s in:\n%s", native, f.String())
		return nil, 0
	}
	// A dropped release leaks a reference to the return.
	mod := build()
	b, i := find(mod.Main(), "memory_release")
	b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
	if err := VerifyRefCounts(mod, tenv); err == nil {
		t.Fatal("missing release not detected")
	}
	// A doubled release gives up a reference nobody holds.
	mod = build()
	b, i = find(mod.Main(), "memory_release")
	b.Instrs = append(b.Instrs[:i+1], b.Instrs[i:]...)
	if err := VerifyRefCounts(mod, tenv); err == nil {
		t.Fatal("double release not detected")
	}
	// An acquire inside the loop makes the back edge deliver more than the
	// entry edge did.
	mod = build()
	b, i = find(mod.Main(), "setpart_1")
	acq, _ := find(mod.Main(), "memory_acquire")
	extra := *acq.Instrs[1]
	extra.Args = []wir.Value{b.Instrs[i]}
	b.Instrs = append(b.Instrs[:i+1], append([]*wir.Instr{&extra}, b.Instrs[i+1:]...)...)
	if err := VerifyRefCounts(mod, tenv); err == nil {
		t.Fatal("per-iteration acquire not detected")
	}
}

func TestLiveness(t *testing.T) {
	mod := buildTWIR(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]`)
	f := mod.Main()
	lv := ComputeLiveness(f, trackedValue)
	// The parameter n is live into the loop header (used by the compare).
	var head *wir.Block
	for _, b := range f.Blocks {
		if b.Label == "while_head" {
			head = b
		}
	}
	nParam := f.Params[0]
	if !lv.LiveIn[head][nParam] {
		t.Fatal("n must be live into the loop header")
	}
	// Loop-carried phis are not live-in to their own block as uses.
	for _, phi := range head.Phis {
		if lv.LiveIn[head][phi] {
			t.Fatalf("phi %s must not be live-in to its defining block", phi.Name())
		}
	}
}

func TestFullPipelineLint(t *testing.T) {
	srcs := []string{
		`Function[{Typed[n, "MachineInteger"]}, NestList[# + 1 &, 0, n]]`,
		`Function[{Typed[v, "Tensor"["Real64", 1]]}, Fold[Function[{a, b}, a + b], 0., v]]`,
		`Function[{Typed[x, "Real64"]}, If[x > 0., Sin[x], Cos[x]]*2.]`,
	}
	for _, src := range srcs {
		mod := buildTWIR(t, src)
		if err := RunPipeline(mod, &Context{Env: types.Builtin(), Opts: DefaultOptions()}); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
}

func TestBlockFusion(t *testing.T) {
	// Inlining a straight-line callee leaves jump chains; fusion collapses
	// them back into one block.
	mod := buildTWIR(t, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Map[Function[{x}, x + 1.], v]]`)
	ResolveIndirectCalls(mod)
	Inline(mod, "all")
	before := len(mod.Main().Blocks)
	RemoveUnreachable(mod)
	if !FuseBlocks(mod) {
		t.Fatal("fusion should fire after inlining")
	}
	after := len(mod.Main().Blocks)
	if after >= before {
		t.Fatalf("fusion did not reduce blocks: %d -> %d", before, after)
	}
	if err := mod.Lint(); err != nil {
		t.Fatalf("fusion broke SSA: %v\n%s", err, mod.Main().String())
	}
}

func TestAbortInhibitBlocksSkipped(t *testing.T) {
	mod := buildTWIR(t, "Function[{Typed[n, \"MachineInteger\"]},\n"+
		"Native`AbortInhibit[Module[{i = 0}, While[i < n, i = i + 1]; i]]]")
	InsertAbortChecks(mod)
	f := mod.Main()
	checks := countInstrs(f, func(in *wir.Instr) bool { return in.Op == wir.OpAbortCheck })
	if checks != 1 { // prologue only; the inhibited loop header is skipped
		t.Fatalf("abort checks = %d, want 1:\n%s", checks, f.String())
	}
}

// TestFoldingNonFiniteReals: NaN and the infinities have no input form, so
// the fold = compiled = interpreter walk over the standard library
// (types.TestScalarNativesMatchInterpreter) never meets them as literals.
// Here each scalar native with a real operand is folded over constants built
// with expr.FromFloat. It folds exactly where its runtime function, the one
// compiled code calls, returns rather than throws, and to what it returns.
func TestFoldingNonFiniteReals(t *testing.T) {
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1, 2.5}
	sameF := func(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
	same := func(a, b any) bool {
		switch x := a.(type) {
		case float64:
			y, ok := b.(float64)
			return ok && sameF(x, y)
		case complex128:
			y, ok := b.(complex128)
			return ok && sameF(real(x), real(y)) && sameF(imag(x), imag(y))
		}
		return a == b
	}
	folds := 0
	for _, body := range []string{"x + y", "x - y", "x*y", "x/y", "Mod[x, y]", "Power[x, y]", "ArcTan[x, y]",
		"Min[x, y]", "Max[x, y]", "x < y", "x <= y", "x > y", "x >= y", "x == y", "x != y", "Complex[x, y]",
		"Sin[x]", "Cos[x]", "Tan[x]", "Exp[x]", "Log[x]", "Sqrt[x]", "ArcTan[x]", "ArcSin[x]", "ArcCos[x]",
		"Abs[x]", "-x", "Floor[x]", "Ceiling[x]", "Round[x]", "Sign[x]", "N[x]", "Power[x, 3]", "x + 1", "2 - x"} {
		for _, a := range values {
			for _, b := range values {
				f := buildTWIR(t, `Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, `+body+`]`).Main()
				ret := f.Blocks[len(f.Blocks)-1].Term()
				call, ok := ret.Args[0].(*wir.Instr)
				if !ok || ScalarOf(call) == nil {
					t.Fatalf("%s: the result is not a scalar native's call:\n%s", body, f.String())
				}
				s := ScalarOf(call)
				var args []any
				for i, v := range call.Args {
					if p, ok := v.(*wir.Param); ok {
						call.Args[i] = &wir.Const{Expr: expr.FromFloat([]float64{a, b}[p.Index]), Ty: types.TReal64}
					}
					cv, _ := constValue(call.Args[i])
					args = append(args, cv)
				}
				var want any
				threw := func() (threw bool) {
					defer func() { threw = recover() != nil }()
					want = s.Call(args)
					return false
				}()
				FoldConstants(f)
				got, folded := constValue(ret.Args[0])
				switch {
				case threw && folded:
					t.Errorf("%s at %v, %v: folded to %v where the runtime function throws", body, a, b, got)
				case !threw && !folded:
					t.Errorf("%s at %v, %v: not folded where the runtime function returns %v", body, a, b, want)
				case folded && !same(got, want):
					t.Errorf("%s at %v, %v: folded to %v, the runtime function returns %v", body, a, b, got, want)
				case folded:
					folds++
				}
			}
		}
	}
	t.Logf("%d folds", folds)
}
