package passes

import (
	"errors"
	"strings"
	"testing"

	"wolfc/internal/diag"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

const managerSrc = `Function[{Typed[n, "MachineInteger"]},
	Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]`

// TestVerifyEachNamesBrokenPass registers a deliberately broken pass that
// strips the entry block's terminator and checks that verify-each mode
// catches the damage immediately after that pass, naming it.
func TestVerifyEachNamesBrokenPass(t *testing.T) {
	mod := buildTWIR(t, managerSrc)
	broken := Pass{Name: "test-break-ssa", Run: func(mod *wir.Module, ctx *Context) (bool, error) {
		b := mod.Main().Entry()
		b.Instrs = b.Instrs[:len(b.Instrs)-1]
		return true, nil
	}}
	p := (&Pipeline{}).Add(foldConstantsPass, broken, dcePass)
	err := p.Run(mod, &Context{Env: types.Builtin(), VerifyEach: true})
	if err == nil {
		t.Fatal("verify-each must fail after the broken pass")
	}
	var d *diag.Diagnostic
	if !errors.As(err, &d) {
		t.Fatalf("want *diag.Diagnostic, got %T: %v", err, err)
	}
	if d.Pass != "test-break-ssa" {
		t.Fatalf("diagnostic must name the offending pass, got %q: %v", d.Pass, err)
	}
	if d.Code != "X901" || !strings.Contains(err.Error(), "SSA verification failed after pass test-break-ssa") {
		t.Fatalf("unexpected diagnostic: %v", err)
	}
}

// TestManagerRecoversPanickingPass turns a pass panic into a diagnostic
// tagged with the pass name instead of crashing the compile.
func TestManagerRecoversPanickingPass(t *testing.T) {
	mod := buildTWIR(t, managerSrc)
	boom := Pass{Name: "test-panic", Run: func(mod *wir.Module, ctx *Context) (bool, error) {
		panic("kaboom")
	}}
	err := (&Pipeline{}).Add(boom).Run(mod, &Context{Env: types.Builtin()})
	if err == nil {
		t.Fatal("panicking pass must surface as an error")
	}
	var d *diag.Diagnostic
	if !errors.As(err, &d) || d.Pass != "test-panic" || d.Code != "X900" {
		t.Fatalf("want X900 diagnostic naming test-panic, got: %v", err)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic payload lost: %v", err)
	}
}

// TestPipelineReportCountsAndTrips checks the manager's instrumentation:
// per-pass run counts, IR sizes, and fixpoint trip counts.
func TestPipelineReportCountsAndTrips(t *testing.T) {
	mod := buildTWIR(t, managerSrc)
	rep := NewReport()
	ctx := &Context{Env: types.Builtin(), Opts: DefaultOptions(), Report: rep}
	if err := RunPipeline(mod, ctx); err != nil {
		t.Fatal(err)
	}
	trips, ok := rep.Trips["local-opt"]
	if !ok || trips < 1 {
		t.Fatalf("fixpoint trip count missing: %+v", rep.Trips)
	}
	byName := map[string]*PassStat{}
	for _, ps := range rep.Passes {
		byName[ps.Name] = ps
	}
	dce, ok := byName["dce"]
	if !ok || dce.Runs < 1 {
		t.Fatalf("dce stats missing: %+v", byName)
	}
	if dce.Runs != trips+1 {
		// dce runs once per fixpoint trip plus once in the O2 cleanup.
		t.Fatalf("dce runs %d, want trips+1 = %d", dce.Runs, trips+1)
	}
	for _, ps := range rep.Passes {
		if ps.InstrsBefore <= 0 || ps.InstrsAfter <= 0 {
			t.Fatalf("IR size not recorded for %s: %+v", ps.Name, ps)
		}
	}
	if size := ModuleSize(mod); size <= 0 {
		t.Fatalf("ModuleSize = %d", size)
	}
}

// TestNoPipelineCountsReferences holds reference counts out of every
// pipeline: they are the C backend's lowering, never a pass. (Which passes
// a pipeline runs, by name, is pinned by cmd's explain goldens.)
func TestNoPipelineCountsReferences(t *testing.T) {
	for level := 0; level <= 2; level++ {
		opts := DefaultOptions()
		opts.OptimizationLevel = level
		if d := DefaultPipeline(opts).Describe(); strings.Contains(d, "refcount") {
			t.Fatalf("O%d pipeline counts references:\n%s", level, d)
		}
	}
}
