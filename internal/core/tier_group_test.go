package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// Mutual-recursion groups: the members compile as one module, call each
// other directly, and get their registry entries only when the job publishes.

// mutualPair defines a and b as TestTierMutualRecursion's pair:
// a[n] = b[n-1] + a[n-2] and b[n] = a[n-1] + b[n-2].
func mutualPair(a, b string) []string {
	return []string{
		a + `[0] = 0`,
		a + `[1] = 1`,
		fmt.Sprintf(`%s[n_] := %s[n - 1] + %s[n - 2]`, a, b, a),
		b + `[0] = 1`,
		b + `[1] = 1`,
		fmt.Sprintf(`%s[n_] := %s[n - 1] + %s[n - 2]`, b, a, b),
	}
}

// tieredBeside is a tiered kernel under pol and an untiered one, both
// holding defs.
func tieredBeside(t testing.TB, pol TierPolicy, defs []string) (k, plain *kernel.Kernel, tr *Tiering) {
	t.Helper()
	k, plain = kernel.New(), kernel.New()
	k.Out, plain.Out = io.Discard, io.Discard
	Install(k)
	Install(plain)
	tr = EnableTiering(k, pol)
	t.Cleanup(func() {
		tr.Close()
		fnreg.Default().Reset()
	})
	for _, d := range defs {
		runK(t, k, d)
		runK(t, plain, d)
	}
	return k, plain, tr
}

// promote runs call until every one of syms is compiled.
func promote(t testing.TB, k *kernel.Kernel, tr *Tiering, call string, syms ...string) {
	t.Helper()
	all := func() bool {
		return !slices.ContainsFunc(syms, func(s string) bool { return !tr.Compiled(expr.Sym(s)) })
	}
	for i := 0; i < 8 && !all(); i++ {
		runK(t, k, call)
		tr.WaitIdle()
	}
	if !all() {
		t.Fatalf("%v not promoted; stats %+v", syms, tr.Stats())
	}
}

// installed is the function the default registry serves name with.
func installed(t *testing.T, name string) *CompiledCodeFunction {
	t.Helper()
	ent, ok := fnreg.Default().Lookup(name)
	if !ok || !ent.Installed() {
		t.Fatalf("%s has no installed entry", name)
	}
	return ent.Binding().Payload.(*CompiledCodeFunction)
}

// sameAsInterpreter evaluates each call on both kernels.
func sameAsInterpreter(t *testing.T, k, plain *kernel.Kernel, calls ...string) {
	t.Helper()
	for _, call := range calls {
		got, want := runK(t, k, call), runK(t, plain, call)
		if !expr.SameQ(got, want) {
			t.Errorf("%s: got %s want %s", call, expr.InputForm(got), expr.InputForm(want))
		}
	}
}

// On the baseline rung, where no upgrade hop recompiles a member alone, the
// pair is one module: each member calls the other directly, never through
// the registry, and names the other in its RegDeps, which keeps it from
// being exported.
func TestTierGroupCallsPartnersDirectly(t *testing.T) {
	k, plain, tr := tieredBeside(t, TierPolicy{Threshold: 2, DisableO2: true}, mutualPair("tmA", "tmB"))
	promote(t, k, tr, `tmA[12]`, "tmA", "tmB")
	a, b := installed(t, "tmA"), installed(t, "tmB")
	if a.Module != b.Module {
		t.Fatal("the members were compiled as two modules")
	}
	for _, m := range []struct {
		ccf     *CompiledCodeFunction
		partner string
	}{{a, "tmB"}, {b, "tmA"}} {
		if !m.ccf.stencil {
			t.Errorf("%s: not on the baseline rung", m.partner)
		}
		entry := m.ccf.Module.FuncByName(m.ccf.Program.Main.Name)
		calls := 0
		for _, blk := range entry.Blocks {
			for _, in := range blk.Instrs {
				switch {
				case in.Op == wir.OpCall && in.Callee == m.partner:
					calls++
					if kind := in.CallKind(); kind != "direct" {
						t.Errorf("%s's call to %s is %q, want direct", entry.Name, m.partner, kind)
					}
				case in.CallKind() == "registry":
					t.Errorf("%s calls %s through the registry", entry.Name, in.Callee)
				}
			}
		}
		if calls == 0 {
			t.Errorf("%s does not call %s", entry.Name, m.partner)
		}
		if !slices.Equal(m.ccf.RegDeps, []string{m.partner}) {
			t.Errorf("%s.RegDeps = %v, want [%s]", entry.Name, m.ccf.RegDeps, m.partner)
		}
		// A member's code holds its partner's: neither exports alone.
		if err := m.ccf.ExportLibrary(io.Discard); err == nil {
			t.Errorf("%s exported as a library", entry.Name)
		}
		if _, err := m.ccf.ExportString("C"); err == nil {
			t.Errorf("%s exported as C", entry.Name)
		}
	}
	sameAsInterpreter(t, k, plain, `tmA[20]`, `tmB[21]`, `tmA[1]`, `tmB[0]`)
}

// Without the baseline rung the pair promotes straight to the optimised
// pipeline and computes what the interpreter does.
func TestTierGroupOptimisedMatchesInterpreter(t *testing.T) {
	k, plain, tr := tieredBeside(t, TierPolicy{Threshold: 2, DisableStencil: true}, mutualPair("toA", "toB"))
	promote(t, k, tr, `toA[12]`, "toA", "toB")
	if installed(t, "toA").stencil || installed(t, "toB").stencil {
		t.Fatal("a member is on the baseline rung with the stencil tier disabled")
	}
	sameAsInterpreter(t, k, plain, `toA[20]`, `toB[21]`, `toA[1]`, `toB[0]`, `toB[2]`)
}

// upgradedPair defines a and b as mutualPair under the default policy and
// calls a until it takes the upgrade hop. a[3] makes two interpreted calls of
// b, and the hop takes Threshold calls from the kernel, which after promotion
// only a gets: b is reached from compiled code alone.
func upgradedPair(t testing.TB, a, b string) (k, plain *kernel.Kernel, tr *Tiering) {
	k, plain, tr = tieredBeside(t, TierPolicy{Threshold: 50}, mutualPair(a, b))
	promote(t, k, tr, a+`[3]`, a, b)
	for i := 0; i < 100 && tr.OnStencilTier(expr.Sym(a)); i++ {
		runK(t, k, a+`[3]`)
		tr.WaitIdle()
	}
	return k, plain, tr
}

// The upgrade hop of one member upgrades the whole group, even a member only
// compiled code calls: each recompiles alone, calling the other through its
// re-pointed entry, so no call is left on the baseline rung.
func TestTierGroupUpgradesTogether(t *testing.T) {
	k, plain, tr := upgradedPair(t, "tuA", "tuB")
	a, b := expr.Sym("tuA"), expr.Sym("tuB")
	if !tr.Compiled(a) || !tr.Compiled(b) || tr.OnStencilTier(a) || tr.OnStencilTier(b) {
		t.Fatalf("the pair did not leave the baseline rung together; stats %+v", tr.Stats())
	}
	if got := tr.Stats().Upgrades; got != 2 {
		t.Errorf("%d upgrades, want 2", got)
	}
	for _, m := range []struct{ name, partner string }{{"tuA", "tuB"}, {"tuB", "tuA"}} {
		if ccf := installed(t, m.name); !slices.Equal(ccf.RegDeps, []string{m.partner}) {
			t.Errorf("%s.RegDeps = %v, want [%s]", m.name, ccf.RegDeps, m.partner)
		}
	}
	sameAsInterpreter(t, k, plain, `tuA[20]`, `tuB[21]`, `tuA[1]`, `tuB[0]`)
}

// A group takes the baseline rung only when every member fits it: a member
// that takes a list sends the whole pair to the optimised pipeline, even with
// the upgrade hop disabled.
func TestTierGroupWithListMemberGoesOptimised(t *testing.T) {
	defs := []string{
		`mlWalk[l_, i_] := If[i > Length[l], 0, mlStep[l[[i]], i]]`,
		`mlStep[x_, i_] := x + mlWalk[{1, 2, 3}, i + 1]`,
	}
	k, plain, tr := tieredBeside(t, TierPolicy{Threshold: 2, DisableO2: true}, defs)
	promote(t, k, tr, `mlWalk[{5, 6, 7}, 1]`, "mlWalk", "mlStep")
	if tr.OnStencilTier(expr.Sym("mlWalk")) || tr.OnStencilTier(expr.Sym("mlStep")) {
		t.Fatal("a member of a group holding a list parameter is on the baseline rung")
	}
	if installed(t, "mlWalk").Module != installed(t, "mlStep").Module {
		t.Fatal("the members were compiled as two modules")
	}
	sameAsInterpreter(t, k, plain, `mlWalk[{5, 6, 7}, 1]`, `mlWalk[{9}, 1]`, `mlWalk[{}, 1]`, `mlStep[4, 1]`, `mlStep[4, 3]`)
}

// A group job whose definitions changed before it published, as a
// redefinition landing mid-compile leaves it, publishes nothing and
// reserves nothing: entries are made at publish only.
func TestTierStaleGroupReservesNothing(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	reg := fnreg.NewRegistry("stale-group")
	tr := EnableTieringWith(NewCompilerWith(k, reg), TierPolicy{Threshold: 1000})
	t.Cleanup(func() {
		tr.Close()
		reg.Release()
	})
	for _, d := range mutualPair("tsA", "tsB") {
		runK(t, k, d)
	}
	runK(t, k, `tsA[6]`) // sketches both, far below the gate
	tr.mu.Lock()
	members, _ := tr.buildGroup(tr.syms[expr.Sym("tsA")])
	tr.mu.Unlock()
	if len(members) != 2 {
		t.Fatalf("group of %d members, want 2", len(members))
	}
	runK(t, k, `tsB[n_] := 7`)
	reserves := reg.Stats().Reserves
	tr.compileJob(NewCompilerWith(k, reg), members)
	if got := reg.Stats().Reserves; got != reserves {
		t.Errorf("the stale job reserved %d entries", got-reserves)
	}
	if names := reg.Names(); len(names) != 0 {
		t.Errorf("the stale job left entries %v", names)
	}
	if tr.Compiled(expr.Sym("tsA")) || tr.Compiled(expr.Sym("tsB")) {
		t.Error("a member of the stale job was installed")
	}
}

// A callee retired while a job compiles leaves the job's code calling dead
// code: publish installs nothing and reserves nothing, and the caller
// re-earns promotion against the callee's successor.
func TestTierPublishRefusesRetiredCallee(t *testing.T) {
	k, _, tr := tieredBeside(t, TierPolicy{Threshold: 2, DisableStencil: true},
		[]string{`rcG[n_] := n + 1`, `rcF[n_] := rcG[n]*2`})
	promote(t, k, tr, `rcG[5]`, "rcG")
	runK(t, k, `rcF[5]`) // sketches rcF, below the gate
	tr.mu.Lock()
	members, _ := tr.buildGroup(tr.syms[expr.Sym("rcF")])
	tr.mu.Unlock()
	if len(members) != 1 {
		t.Fatalf("job of %d members, want rcF alone", len(members))
	}
	ccf, err := NewCompiler(k).FunctionCompileRequest(members[0].fn, CompileRequest{SelfName: "rcF"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ccf.RegDeps, []string{"rcG"}) {
		t.Fatalf("rcF.RegDeps = %v, want [rcG]", ccf.RegDeps)
	}
	runK(t, k, `rcG[n_] := n + 2`)
	reserves := fnreg.Default().Stats().Reserves
	tr.publish(members, []*CompiledCodeFunction{ccf}, nil)
	if _, ok := fnreg.Default().Lookup("rcF"); ok || fnreg.Default().Stats().Reserves != reserves {
		t.Fatal("publish made an entry for code that calls a retired entry")
	}
	promote(t, k, tr, `rcG[5]`, "rcG")
	promote(t, k, tr, `rcF[5]`, "rcF")
	if got := expr.InputForm(runK(t, k, `rcF[5]`)); got != "14" {
		t.Fatalf("rcF[5] = %s, want 14", got)
	}
}

// A callee retired for soft failures leaves its dependents' code in the
// compile cache, calling the dead entry. When the dependent is promoted again
// after the callee's redefinition, publish must not install that copy: the
// re-promoted function runs without falling back.
func TestTierRepromotionSkipsStaleCachedCode(t *testing.T) {
	k, plain, tr := tieredBeside(t, TierPolicy{Threshold: 2},
		[]string{`scH[n_] := n*n*n*n*n`, `scK[n_] := scH[n] + 1`})
	promote(t, k, tr, `scH[3]`, "scH")
	promote(t, k, tr, `scK[3]`, "scK")
	for i := 0; i < failureLimit; i++ {
		runK(t, k, `scH[10000]`) // overflows: soft failures retire scH, and scK with it
	}
	if tr.Compiled(expr.Sym("scH")) || tr.Compiled(expr.Sym("scK")) {
		t.Fatalf("scH and scK should have been retired; stats %+v", tr.Stats())
	}
	runK(t, k, `scH[n_] := n*n*n`)
	runK(t, plain, `scH[n_] := n*n*n`)
	promote(t, k, tr, `scH[3]`, "scH")
	promote(t, k, tr, `scK[3]`, "scK")
	fallbacks := tr.Stats().SoftFallbacks
	sameAsInterpreter(t, k, plain, `scK[3]`, `scK[5]`)
	if got := tr.Stats().SoftFallbacks - fallbacks; got != 0 {
		t.Fatalf("the re-promoted scK fell back %d times: it calls the retired scH entry", got)
	}
}

// A group promotion emits one compile trace event, named by its members,
// under the span of the request that made the group hot.
func TestTierGroupTraceEvent(t *testing.T) {
	k, _, tr := tieredBeside(t, TierPolicy{Threshold: 2, DisableO2: true}, mutualPair("tgA", "tgB"))
	var sink bytes.Buffer
	obs.SetTraceWriter(&sink)
	detached := false
	detach := func() {
		if !detached {
			obs.SetTraceWriter(nil)
			detached = true
		}
	}
	t.Cleanup(detach)
	sc := obs.NewTrace("")
	k.SetTraceSpan(sc)
	t.Cleanup(func() { k.SetTraceSpan(nil) })
	promote(t, k, tr, `tgA[12]`, "tgA", "tgB")
	detach()

	var compiles []obs.TraceEvent
	dec := json.NewDecoder(&sink)
	for dec.More() {
		var ev obs.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "compile" {
			compiles = append(compiles, ev)
		}
	}
	if len(compiles) != 1 {
		t.Fatalf("%d compile events, want 1: %+v", len(compiles), compiles)
	}
	ev := compiles[0]
	if ev.Name != "{tgA, tgB}" && ev.Name != "{tgB, tgA}" {
		t.Errorf("compile event named %q, want the two members", ev.Name)
	}
	if ev.TraceID != obs.IDString(sc.TraceID) || ev.ParentID != obs.IDString(sc.SpanID) {
		t.Errorf("compile event under trace %s span %s, want %s span %s",
			ev.TraceID, ev.ParentID, obs.IDString(sc.TraceID), obs.IDString(sc.SpanID))
	}
}

// BenchmarkGroupUpgradedCall times tmA[22] once the tmA/tmB pair has taken
// the upgrade hop, tmB being reached from compiled code alone.
func BenchmarkGroupUpgradedCall(b *testing.B) {
	k, _, _ := upgradedPair(b, "tmA", "tmB")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runK(b, k, `tmA[22]`)
	}
}

// BenchmarkGroupCompile compiles the tmA/tmB pair as a promotion does, on
// each rung: both definitions synthesized from their DownValues once, then
// per round BuildWIR twice, the splice, and the back half over the module.
func BenchmarkGroupCompile(b *testing.B) {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	for _, d := range mutualPair("tmA", "tmB") {
		if _, err := k.Run(parser.MustParse(d)); err != nil {
			b.Fatal(err)
		}
	}
	names := []string{"tmA", "tmB"}
	fns := make([]expr.Expr, len(names))
	for i, name := range names {
		sym := expr.Sym(name)
		p, err := analyzeDownValues(k, sym, k.DownValues(sym), []types.Type{types.TInt64})
		if err != nil {
			b.Fatal(err)
		}
		fns[i] = synthesizeDownValues(p)
	}
	for _, rung := range []struct {
		name    string
		stencil bool
	}{{"baseline", true}, {"O2", false}} {
		b.Run(rung.name, func(b *testing.B) {
			c := NewCompiler(k)
			c.Stencil = rung.stencil
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.compileGroup(names, fns, obs.SpanContext{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
