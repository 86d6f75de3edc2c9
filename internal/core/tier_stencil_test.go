package core

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// Two-hop tiering tests (ISSUE 6): interpreter → stencil baseline → full
// pipeline, with the registry entry re-pointed in place on the second hop.

// TestTierStencilTwoHop drives a recursive definition through both hops and
// checks results stay identical to a plain kernel throughout.
func TestTierStencilTwoHop(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	tr := EnableTiering(k, TierPolicy{Threshold: 4})
	t.Cleanup(func() { tr.Close(); fnreg.Default().Reset() })
	plain := kernel.New()
	plain.Out = io.Discard
	Install(plain)

	def := `thFib[n_] := If[n < 2, n, thFib[n - 1] + thFib[n - 2]]`
	runK(t, k, def)
	if _, err := plain.Run(parser.MustParse(def)); err != nil {
		t.Fatal(err)
	}
	want, _ := plain.Run(parser.MustParse(`thFib[15]`))

	// Keep calling until the symbol has ridden both hops: promoted to the
	// stencil tier, then upgraded in place to the optimised backend.
	deadline := time.Now().Add(20 * time.Second)
	for tr.Stats().Upgrades == 0 && time.Now().Before(deadline) {
		got := runK(t, k, `thFib[15]`)
		if !expr.SameQ(got, want) {
			t.Fatalf("mid-warmup: got %s want %s (stats %+v)",
				expr.InputForm(got), expr.InputForm(want), tr.Stats())
		}
		tr.WaitIdle()
	}
	s := tr.Stats()
	if s.StencilPromotions == 0 {
		t.Fatalf("stencil tier never engaged: %+v", s)
	}
	if s.Upgrades == 0 {
		t.Fatalf("stencil entry was never upgraded to the optimised tier: %+v", s)
	}
	if !tr.Compiled(expr.Sym("thFib")) || tr.OnStencilTier(expr.Sym("thFib")) {
		t.Fatalf("expected thFib on the optimised tier: %+v", s)
	}
	// The upgrade must not have retired the entry (re-point in place).
	ent, ok := fnreg.Default().Lookup("thFib")
	if !ok || !ent.Installed() {
		t.Fatal("registry entry lost across the upgrade hop")
	}
	got := runK(t, k, `thFib[20]`)
	want, _ = plain.Run(parser.MustParse(`thFib[20]`))
	if !expr.SameQ(got, want) {
		t.Fatalf("post-upgrade: got %s want %s", expr.InputForm(got), expr.InputForm(want))
	}
}

// TestTierStencilOnly pins symbols to the baseline tier (DisableO2) and
// checks steady-state stencil execution stays correct and un-upgraded.
func TestTierStencilOnly(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	tr := EnableTiering(k, TierPolicy{Threshold: 3, DisableO2: true})
	t.Cleanup(func() { tr.Close(); fnreg.Default().Reset() })
	plain := kernel.New()
	plain.Out = io.Discard
	Install(plain)

	def := `soFib[n_] := If[n < 2, n, soFib[n - 1] + soFib[n - 2]]`
	runK(t, k, def)
	if _, err := plain.Run(parser.MustParse(def)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		got := runK(t, k, `soFib[14]`)
		want, _ := plain.Run(parser.MustParse(`soFib[14]`))
		if !expr.SameQ(got, want) {
			t.Fatalf("iteration %d: got %s want %s", i, expr.InputForm(got), expr.InputForm(want))
		}
		tr.WaitIdle()
	}
	s := tr.Stats()
	if s.StencilPromotions == 0 || !tr.OnStencilTier(expr.Sym("soFib")) {
		t.Fatalf("expected soFib pinned to the stencil tier: %+v", s)
	}
	if s.Upgrades != 0 {
		t.Fatalf("DisableO2 must suppress upgrades: %+v", s)
	}
}

// TestTierNoStencil restores the straight-to-optimised behaviour.
func TestTierNoStencil(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	Install(k)
	tr := EnableTiering(k, TierPolicy{Threshold: 2, DisableStencil: true})
	t.Cleanup(func() { tr.Close(); fnreg.Default().Reset() })

	runK(t, k, `nsFib[n_] := If[n < 2, n, nsFib[n - 1] + nsFib[n - 2]]`)
	runK(t, k, `nsFib[15]`)
	tr.WaitIdle()
	runK(t, k, `nsFib[15]`)
	tr.WaitIdle()
	s := tr.Stats()
	if !tr.Compiled(expr.Sym("nsFib")) {
		t.Fatalf("nsFib was not promoted: %+v", s)
	}
	if s.StencilPromotions != 0 || tr.OnStencilTier(expr.Sym("nsFib")) {
		t.Fatalf("stencil tier must be disabled: %+v", s)
	}
}

// TestTierParallelPromotionRedefineRace hammers the bounded worker pool:
// two kernels on two goroutines (the registry is process-global), each
// cycling redefinition → hot calls → promotion → upgrade without waiting
// for the pool between rounds, so installs, upgrades, retires and stale
// discards race the evaluating goroutines. Run under -race; results must
// track the latest definition at every step.
func TestTierParallelPromotionRedefineRace(t *testing.T) {
	t.Cleanup(fnreg.Default().Reset)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := kernel.New()
			k.Out = io.Discard
			Install(k)
			tr := EnableTiering(k, TierPolicy{Threshold: 3, Workers: 4})
			defer tr.Close()
			syms := make([]string, 6)
			for i := range syms {
				syms[i] = fmt.Sprintf("race%dsym%d", g, i)
			}
			for round := 0; round < 8; round++ {
				// Redefine every symbol (retire + cascade), no WaitIdle: any
				// in-flight compile for the old definition must discard.
				for _, s := range syms {
					def := fmt.Sprintf(`%s[n_] := n*2 + %d`, s, round)
					if _, err := k.Run(parser.MustParse(def)); err != nil {
						errs <- err
						return
					}
				}
				for it := 0; it < 6; it++ {
					for si, s := range syms {
						arg := int64(si + it)
						out, err := k.Run(parser.MustParse(fmt.Sprintf(`%s[%d]`, s, arg)))
						if err != nil {
							errs <- err
							return
						}
						want := fmt.Sprintf("%d", arg*2+int64(round))
						if got := expr.InputForm(out); got != want {
							errs <- fmt.Errorf("round %d %s[%d]: got %s want %s (stats %+v)",
								round, s, arg, got, want, tr.Stats())
							return
						}
					}
				}
			}
			tr.WaitIdle()
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
