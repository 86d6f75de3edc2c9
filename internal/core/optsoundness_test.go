package core

import (
	"math/rand"
	"testing"

	"wolfc/internal/parser"
	"wolfc/internal/passes"
)

// Optimisation soundness: every configuration of the pass pipeline must
// compute the same function. Random programs are compiled at -O0 with
// inlining and copy elision disabled, at the default level, and with every
// ablation toggle flipped; all variants must agree exactly with each other
// on every input.

func optVariants() map[string]passes.Options {
	return map[string]passes.Options{
		"default": passes.DefaultOptions(),
		"O0": {AbortHandling: true, InlinePolicy: "none",
			OptimizationLevel: 0, DisableCopyElision: true},
		"no-inline":     {AbortHandling: true, InlinePolicy: "none", OptimizationLevel: 1},
		"inline-all":    {AbortHandling: true, InlinePolicy: "all", OptimizationLevel: 1},
		"no-abort":      {AbortHandling: false, InlinePolicy: "auto", OptimizationLevel: 1},
		"forced-copies": {AbortHandling: true, InlinePolicy: "auto", OptimizationLevel: 1, DisableCopyElision: true},
	}
}

func TestOptimizationSoundnessIntegerQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(31337))
	args := []int64{0, 1, 7, 33}
	// Forty programs: the 29th is the first whose rotation leaves a cycle
	// of copies and fused trees on an edge, which needs two saves.
	for trial := 0; trial < 40; trial++ {
		src := genIntStateProgram(rng)
		results := map[string][]int64{}
		for name, opts := range optVariants() {
			c := newCompiler()
			c.Options = opts
			ccf, err := c.FunctionCompile(parser.MustParse(src))
			if err != nil {
				t.Fatalf("trial %d: %s: compile: %v\n%s", trial, name, err, src)
			}
			out := make([]int64, len(args))
			for i, n := range args {
				out[i] = ccf.CallRaw(n).(int64)
			}
			results[name] = out
		}
		want := results["default"]
		for name, got := range results {
			for i := range args {
				if got[i] != want[i] {
					t.Fatalf("trial %d: %s(%d) = %d, default = %d\n%s",
						trial, name, args[i], got[i], want[i], src)
				}
			}
		}
	}
}

// Tensor programs exercise the copy-insertion and refcount passes, which
// the DisableCopyElision and O0 variants reconfigure most.
func TestOptimizationSoundnessTensorPrograms(t *testing.T) {
	srcs := []string{
		// Aliased write: w = v; w[[1]] = … must not be visible through v.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{v = ConstantArray[1, 5], w, s = 0, i = 1},
				w = v; w[[1]] = n;
				While[i <= 5, s = s*100 + v[[i]]*10 + w[[i]]; i++];
				s]]`,
		// In-place macro loop with a later read.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{v = ConstantArray[0, n], s = 0, i = 1},
				While[i <= n, v[[i]] = Mod[i*i, 97]; i++];
				i = 1;
				While[i <= n, s = Mod[s*31 + v[[i]], 100003]; i++];
				s]]`,
		// Nest with a fresh list per iteration.
		`Function[{Typed[n, "MachineInteger"]},
			Module[{v = ConstantArray[2, n], w},
				w = v + v;
				w[[1]] = w[[1]] + v[[1]];
				Fold[Plus, 0, w]]]`,
	}
	args := []int64{3, 5}
	for _, src := range srcs {
		results := map[string][]int64{}
		for name, opts := range optVariants() {
			c := newCompiler()
			c.Options = opts
			ccf, err := c.FunctionCompile(parser.MustParse(src))
			if err != nil {
				t.Fatalf("%s: compile: %v\n%s", name, err, src)
			}
			out := make([]int64, len(args))
			for i, n := range args {
				out[i] = ccf.CallRaw(n).(int64)
			}
			results[name] = out
		}
		want := results["default"]
		for name, got := range results {
			for i := range args {
				if got[i] != want[i] {
					t.Fatalf("%s(%d) = %d, default = %d\n%s",
						name, args[i], got[i], want[i], src)
				}
			}
		}
	}
}
