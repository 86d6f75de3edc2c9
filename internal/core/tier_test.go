package core

import (
	"io"
	"testing"
	"time"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// Tiered-execution tests (ISSUE 5). The registry is process-global, so
// every test uses its own symbol names and resets the registry on exit.

func newTieredKernel(t *testing.T, threshold uint64) (*kernel.Kernel, *Tiering) {
	t.Helper()
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	tr := EnableTiering(k, TierPolicy{Threshold: threshold})
	t.Cleanup(func() {
		tr.Close()
		fnreg.Default().Reset()
	})
	return k, tr
}

func runK(t testing.TB, k *kernel.Kernel, src string) expr.Expr {
	t.Helper()
	out, err := k.Run(parser.MustParse(src))
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return out
}

// A hot recursive DownValue definition is promoted to compiled code with
// identical results, and redefinition drops it back to the interpreter
// with the new semantics taking effect immediately.
func TestTierPromoteAndRedefine(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := kernel.New()
	plain.Out = io.Discard
	Install(plain)

	defs := []string{
		`tpFib[0] = 0`,
		`tpFib[1] = 1`,
		`tpFib[n_] := tpFib[n - 1] + tpFib[n - 2]`,
	}
	for _, d := range defs {
		runK(t, k, d)
		if _, err := plain.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: the recursive evaluation alone crosses the threshold.
	first := runK(t, k, `tpFib[15]`)
	want, _ := plain.Run(parser.MustParse(`tpFib[15]`))
	if !expr.SameQ(first, want) {
		t.Fatalf("pre-promotion: got %s want %s", expr.InputForm(first), expr.InputForm(want))
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tpFib")) {
		t.Fatalf("tpFib was not promoted; stats %+v", tr.Stats())
	}
	ent, ok := fnreg.Default().Lookup("tpFib")
	if !ok || !ent.Installed() {
		t.Fatal("registry entry for tpFib missing or not installed")
	}
	// Post-promotion differential.
	got := runK(t, k, `tpFib[26]`)
	want, _ = plain.Run(parser.MustParse(`tpFib[26]`))
	if !expr.SameQ(got, want) {
		t.Fatalf("post-promotion: got %s want %s", expr.InputForm(got), expr.InputForm(want))
	}
	if tr.Stats().CompiledCalls == 0 {
		t.Fatal("no dispatches were served by compiled code")
	}

	// Redefinition retires the entry and the new definition wins.
	runK(t, k, `tpFib[n_] := 42`)
	if tr.Compiled(expr.Sym("tpFib")) {
		t.Fatal("tpFib still on the compiled tier after redefinition")
	}
	if ent, ok := fnreg.Default().Lookup("tpFib"); ok && ent.Installed() {
		t.Fatal("registry entry survived redefinition")
	}
	if out := runK(t, k, `tpFib[26]`); expr.InputForm(out) != "42" {
		t.Fatalf("after redefinition tpFib[26] = %s, want 42", expr.InputForm(out))
	}

	// Clear uninstalls too.
	runK(t, k, `tcSq[n_] := n*n`)
	for i := 0; i < 5; i++ {
		runK(t, k, `tcSq[7]`)
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tcSq")) {
		t.Fatal("tcSq was not promoted")
	}
	runK(t, k, `Clear[tcSq]`)
	if _, ok := fnreg.Default().Lookup("tcSq"); ok {
		t.Fatal("Clear left the registry entry live")
	}
	if out := runK(t, k, `tcSq[7]`); expr.InputForm(out) != "tcSq[7]" {
		t.Fatalf("after Clear tcSq[7] = %s, want unevaluated", expr.InputForm(out))
	}
}

// Arguments outside the compiled signature (bignums) and machine overflow
// inside compiled code both fall back to the interpreter with identical
// results.
func TestTierGuardAndOverflowFallback(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := kernel.New()
	plain.Out = io.Discard
	Install(plain)

	def := `tgFact[n_] := If[n == 0, 1, n*tgFact[n - 1]]`
	runK(t, k, def)
	if _, err := plain.Run(parser.MustParse(def)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		runK(t, k, `tgFact[10]`)
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tgFact")) {
		t.Fatalf("tgFact was not promoted; stats %+v", tr.Stats())
	}
	// 25! overflows int64: the compiled body throws, the dispatch falls
	// back silently, and the interpreter produces the bignum.
	got := runK(t, k, `tgFact[25]`)
	want, _ := plain.Run(parser.MustParse(`tgFact[25]`))
	if !expr.SameQ(got, want) {
		t.Fatalf("overflow fallback: got %s want %s", expr.InputForm(got), expr.InputForm(want))
	}
	if tr.Stats().SoftFallbacks == 0 {
		t.Fatal("expected a recorded soft fallback")
	}
	// A bignum argument misses the guard entirely and lands on the
	// interpreter rules.
	runK(t, k, `tgSq[n_] := n*n`)
	for i := 0; i < 4; i++ {
		runK(t, k, `tgSq[9]`)
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tgSq")) {
		t.Fatal("tgSq was not promoted")
	}
	got = runK(t, k, `tgSq[2^70]`)
	want, _ = plain.Run(parser.MustParse(`(2^70)*(2^70)`))
	if !expr.SameQ(got, want) {
		t.Fatalf("bignum guard miss: got %s want %s", expr.InputForm(got), expr.InputForm(want))
	}
	if tr.Stats().GuardMisses == 0 {
		t.Fatal("expected a recorded guard miss")
	}
}

// Two mutually recursive definitions are promoted as a group, compiled as one
// module in which they call each other directly. The upgrade hop then
// recompiles a member alone, and its call to the other resolves as a direct
// registry call (no KernelApply boxing) to the partner's installed entry;
// results stay differential against the interpreter, and redefining one
// member retires both.
func TestTierMutualRecursion(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	plain := kernel.New()
	plain.Out = io.Discard
	Install(plain)

	defs := []string{
		`tmA[0] = 0`,
		`tmA[1] = 1`,
		`tmA[n_] := tmB[n - 1] + tmA[n - 2]`,
		`tmB[0] = 1`,
		`tmB[1] = 1`,
		`tmB[n_] := tmA[n - 1] + tmB[n - 2]`,
	}
	for _, d := range defs {
		runK(t, k, d)
		if _, err := plain.Run(parser.MustParse(d)); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both sketches, then let the group promote.
	runK(t, k, `tmA[12]`)
	runK(t, k, `tmB[12]`)
	runK(t, k, `tmA[12]`)
	tr.WaitIdle()
	// Promotion of the pair may take one more trigger depending on which
	// sketch existed when the first became hot, and tmA's upgrade hop takes
	// Threshold calls served by the baseline rung: how many of the calls above
	// it served depends on when the worker ran.
	for i := 0; i < 8 && !(tr.Compiled(expr.Sym("tmA")) && !tr.OnStencilTier(expr.Sym("tmA"))); i++ {
		runK(t, k, `tmA[12]`)
		tr.WaitIdle()
	}
	if !tr.Compiled(expr.Sym("tmA")) || !tr.Compiled(expr.Sym("tmB")) {
		t.Fatalf("mutual pair not promoted; stats %+v", tr.Stats())
	}

	// The cross-unit call is a direct registry call in the compiled IR.
	entA, ok := fnreg.Default().Lookup("tmA")
	if !ok || !entA.Installed() {
		t.Fatal("tmA registry entry missing")
	}
	ccf, ok := entA.Binding().Payload.(*CompiledCodeFunction)
	if !ok {
		t.Fatal("tmA payload is not a CompiledCodeFunction")
	}
	foundRegistryCall := false
	foundKernelApply := false
	for _, f := range ccf.Module.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.CallKind() {
				case "registry":
					foundRegistryCall = true
				case "kernel":
					foundKernelApply = true
				}
			}
		}
	}
	if !foundRegistryCall {
		t.Fatal("tmA's call to tmB did not resolve as a registry call")
	}
	if foundKernelApply {
		t.Fatal("tmA still contains a KernelApply escape")
	}
	if len(ccf.RegDeps) == 0 || ccf.RegDeps[0] != "tmB" {
		t.Fatalf("tmA.RegDeps = %v, want [tmB]", ccf.RegDeps)
	}

	// Differential through the compiled pair.
	for _, n := range []string{"tmA[20]", "tmB[21]", "tmA[1]", "tmB[0]"} {
		got := runK(t, k, n)
		want, _ := plain.Run(parser.MustParse(n))
		if !expr.SameQ(got, want) {
			t.Fatalf("%s: got %s want %s", n, expr.InputForm(got), expr.InputForm(want))
		}
	}

	// Redefining one member cascades through the registry: both entries
	// retire (tmA's compiled code bakes a call to tmB's entry).
	runK(t, k, `tmB[n_] := 7`)
	if _, ok := fnreg.Default().Lookup("tmB"); ok {
		t.Fatal("tmB entry survived redefinition")
	}
	if ent, ok := fnreg.Default().Lookup("tmA"); ok && ent.Installed() {
		t.Fatal("tmA entry survived retirement of its dependency")
	}
	if tr.Compiled(expr.Sym("tmA")) {
		t.Fatal("tmA still on the compiled tier after its dependency retired")
	}
	// tmB[n_] := 7 replaced only the general rule; the literal rules
	// tmB[0] = 1 and tmB[1] = 1 remain:
	// tmA[4] = tmB[3] + tmA[2] = 7 + (tmB[1] + tmA[0]) = 7 + 1 + 0 = 8.
	if out := runK(t, k, `tmA[4]`); expr.InputForm(out) != "8" {
		t.Fatalf("after redefinition tmA[4] = %s, want 8", expr.InputForm(out))
	}
}

// An abort delivered while a deep compiled call chain is running surfaces
// as $Aborted, exactly as on the interpreter tier (F3).
func TestTierAbortMidCallChain(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	defs := []string{
		`taA[0] = 0`,
		`taA[1] = 1`,
		`taA[n_] := taB[n - 1] + taA[n - 2]`,
		`taB[0] = 1`,
		`taB[1] = 1`,
		`taB[n_] := taA[n - 1] + taB[n - 2]`,
	}
	for _, d := range defs {
		runK(t, k, d)
	}
	runK(t, k, `taA[12]`)
	runK(t, k, `taB[12]`)
	runK(t, k, `taA[12]`)
	tr.WaitIdle()
	runK(t, k, `taA[12]`)
	tr.WaitIdle()

	// Exponential work, shallow stack: the abort lands mid-chain whether
	// or not the pair was promoted.
	go func() {
		time.Sleep(2 * time.Millisecond)
		k.Abort()
	}()
	out, err := k.Run(parser.MustParse(`taA[38]`))
	if err != nil {
		t.Fatal(err)
	}
	if out != expr.SymAborted {
		t.Fatalf("got %s, want $Aborted", expr.InputForm(out))
	}
	// The kernel recovers afterwards (taA[10] = 55 for this pair).
	if got := runK(t, k, `taA[10]`); expr.InputForm(got) != "55" {
		t.Fatalf("post-abort taA[10] = %s, want 55", expr.InputForm(got))
	}
}

// The registry itself: reserve/install/retire lifecycle invariants used by
// the tiering engine.
func TestTierInstallStaleDiscard(t *testing.T) {
	k, tr := newTieredKernel(t, 3)
	runK(t, k, `tsF[n_] := n + 1`)
	for i := 0; i < 6; i++ {
		runK(t, k, `tsF[5]`)
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tsF")) {
		t.Fatal("tsF not promoted")
	}
	// Redefine: the entry is retired; a fresh round of calls re-promotes
	// under the new definition.
	runK(t, k, `tsF[n_] := n + 2`)
	for i := 0; i < 6; i++ {
		if out := runK(t, k, `tsF[5]`); expr.InputForm(out) != "7" {
			t.Fatalf("tsF[5] = %s, want 7", expr.InputForm(out))
		}
	}
	tr.WaitIdle()
	if !tr.Compiled(expr.Sym("tsF")) {
		t.Fatal("tsF not re-promoted after redefinition")
	}
	if out := runK(t, k, `tsF[5]`); expr.InputForm(out) != "7" {
		t.Fatalf("compiled tsF[5] = %s, want 7", expr.InputForm(out))
	}
}

// TestApplyAndDispatchAgree runs one compiled function through its two boxed
// entry points — CompiledCodeFunction.Apply and the tiering dispatch hook —
// over every class of argument and checks they classify the call alike and
// return the same value where both return one. They may differ in one place
// only, by design: the dispatch hook's strict-kind precondition refuses what
// Unbox would coerce (the pattern said _Real), and Apply reports a wrong
// argument count as an error instead of re-evaluating.
func TestApplyAndDispatchAgree(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	tr := EnableTiering(k, TierPolicy{Threshold: 2, DisableStencil: true})
	t.Cleanup(func() { tr.Close(); fnreg.Default().Reset() })
	sym := expr.Sym("agF")
	runK(t, k, `agF[n_Integer, x_Real] /; n > 0 := n*n*n*n*n + Floor[x]`)
	for i := 0; i < 4; i++ {
		runK(t, k, `agF[2, 0.5]`)
		tr.WaitIdle()
	}
	ent, ok := fnreg.Default().Lookup("agF")
	if !ok || !ent.Installed() {
		t.Fatalf("agF was not promoted; stats %+v", tr.Stats())
	}
	ccf := ent.Binding().Payload.(*CompiledCodeFunction)

	// hookClass reads the dispatch hook's classification off its counters.
	hookClass := func(before, after TieringStats) outcome {
		switch {
		case after.CompiledCalls > before.CompiledCalls:
			return outServed
		case after.Aborts > before.Aborts:
			return outAborted
		case after.GuardMisses > before.GuardMisses:
			return outGuardMiss
		case after.SoftFallbacks > before.SoftFallbacks:
			return outSoftFailure
		}
		t.Fatal("the dispatch hook counted nothing")
		return 0
	}
	rows := []struct {
		name        string
		args        []string
		abort       bool
		apply, hook outcome
	}{
		{"in-signature", []string{"3", "1.5"}, false, outServed, outServed},
		{"bignum into a machine slot", []string{"2^70", "1.5"}, false, outGuardMiss, outGuardMiss},
		{"Integer into a Real slot", []string{"3", "2"}, false, outServed, outGuardMiss},
		{"wrong arity", []string{"3"}, false, outGuardMiss, outGuardMiss},
		{"overflowing body", []string{"10000", "1.5"}, false, outSoftFailure, outSoftFailure},
		{"PatternMiss", []string{"-3", "1.5"}, false, outGuardMiss, outGuardMiss},
		{"abort", []string{"3", "1.5"}, true, outAborted, outAborted},
	}
	for _, row := range rows {
		args := make([]expr.Expr, len(row.args))
		for i, a := range row.args {
			args[i] = runK(t, k, a)
		}
		arm := func() {
			k.ClearAbort()
			if row.abort {
				k.Abort()
			}
		}

		arm()
		before := tr.Stats()
		hookOut, hookOK := tr.dispatch(k, sym, expr.New(sym, args...))
		if got := hookClass(before, tr.Stats()); got != row.hook {
			t.Errorf("%s: dispatch hook classified %d, want %d", row.name, got, row.hook)
		}
		if hookOK != (row.hook == outServed || row.hook == outAborted) {
			t.Errorf("%s: dispatch hook returned ok=%v", row.name, hookOK)
		}

		arm()
		applyOut, err := ccf.Apply(args)
		if len(args) != len(ccf.ParamTypes) {
			if err == nil {
				t.Errorf("%s: Apply accepted %d arguments", row.name, len(args))
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Apply: %v", row.name, err)
			continue
		}
		arm()
		if _, got, _ := ccf.invoke(args); got != row.apply {
			t.Errorf("%s: Apply's invoke classified %d, want %d", row.name, got, row.apply)
		}
		if hookOK && !expr.SameQ(hookOut, applyOut) {
			t.Errorf("%s: dispatch hook returned %s, Apply %s", row.name,
				expr.InputForm(hookOut), expr.InputForm(applyOut))
		}
	}
	k.ClearAbort()
	if want := "244"; expr.InputForm(runK(t, k, `agF[3, 1.5]`)) != want {
		t.Fatalf("agF[3, 1.5] != %s after the table", want)
	}
}

// TestTierCascadeDemotionNeedsNoBookkeeping: a dependent whose entry only the
// registry's cascade retired — because its callee was redefined, or because
// its callee kept soft-failing and was retired at failureLimit — is untouched
// by the tiering engine (its record still points at the retired entry), is
// dispatched interpreted on its next call, and re-earns promotion.
func TestTierCascadeDemotionNeedsNoBookkeeping(t *testing.T) {
	k, tr := newTieredKernel(t, 2)
	warm := func(call string, sym string) {
		t.Helper()
		for i := 0; i < 6 && !tr.Compiled(expr.Sym(sym)); i++ {
			runK(t, k, call)
			tr.WaitIdle()
		}
		if !tr.Compiled(expr.Sym(sym)) {
			t.Fatalf("%s was not promoted; stats %+v", sym, tr.Stats())
		}
	}
	demoted := func(sym string) {
		t.Helper()
		tr.mu.Lock()
		st := tr.syms[expr.Sym(sym)]
		untouched := st.entry != nil && st.entry.Retired()
		tr.mu.Unlock()
		if !untouched {
			t.Fatalf("%s: the cascade should leave the record on its retired entry", sym)
		}
		if tr.Compiled(expr.Sym(sym)) {
			t.Fatalf("%s still counts as compiled after its entry was retired", sym)
		}
	}
	expect := func(call, want string) {
		t.Helper()
		if got := expr.InputForm(runK(t, k, call)); got != want {
			t.Fatalf("%s = %s, want %s", call, got, want)
		}
	}

	// Callee redefined.
	runK(t, k, `cdG[n_] := n + 1`)
	runK(t, k, `cdF[n_] := cdG[n]*2`)
	warm(`cdG[5]`, "cdG")
	warm(`cdF[5]`, "cdF")
	runK(t, k, `cdG[n_] := n + 2`)
	demoted("cdF")
	expect(`cdF[5]`, "14")
	warm(`cdG[5]`, "cdG")
	warm(`cdF[5]`, "cdF")
	expect(`cdF[5]`, "14")

	// Callee retired by soft failures: n^5 overflows at 10^4.
	runK(t, k, `cdH[n_] := n*n*n*n*n`)
	runK(t, k, `cdK[n_] := cdH[n] + 1`)
	warm(`cdH[3]`, "cdH")
	warm(`cdK[3]`, "cdK")
	retires := tr.Stats().Retires
	for i := 0; i < failureLimit; i++ {
		expect(`cdH[10000]`, "100000000000000000000")
	}
	if tr.Compiled(expr.Sym("cdH")) || tr.Stats().Retires != retires+2 {
		t.Fatalf("cdH and its dependent should have been retired; stats %+v", tr.Stats())
	}
	demoted("cdK")
	expect(`cdK[3]`, "244")
	// cdH stays interpreted until it is redefined; once it is, both re-earn
	// their compiled tier.
	runK(t, k, `cdH[n_] := n*n*n`)
	warm(`cdH[3]`, "cdH")
	warm(`cdK[3]`, "cdK")
	expect(`cdK[3]`, "28")
}
