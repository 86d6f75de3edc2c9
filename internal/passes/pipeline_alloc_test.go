package passes_test

import (
	"testing"

	"wolfc/internal/core"
	"wolfc/internal/passes"
	"wolfc/internal/testcorpus"
	"wolfc/internal/wir"
)

// pipelineSet is the fixed set of corpus modules the allocation ceiling and
// the pipeline benchmark compile: the evaluation's own sources, the ones a
// cold compile runs.
var pipelineSet = map[string]bool{
	"fnv1a": true, "mandelbrot": true, "dot": true, "blur": true, "histogram": true,
	"primeq": true, "qsort": true, "randomwalk": true, "fusion-scalarloop": true,
	"fusion-mandelfuse": true, "fusion-partloop": true, "coldstart-mandelcount": true,
	"coldstart-convgrid": true, "coldstart-horner": true, "coldstart-gcdsum": true,
}

type pipelineEntry struct {
	e testcorpus.Entry
	c *core.Compiler
}

func pipelineEntries(t testing.TB) []pipelineEntry {
	var out []pipelineEntry
	for _, e := range testcorpus.All(t) {
		if pipelineSet[e.Name] {
			out = append(out, pipelineEntry{e, e.Compiler()})
		}
	}
	if len(out) != len(pipelineSet) {
		t.Fatalf("found %d of the %d pipeline modules in the corpus", len(out), len(pipelineSet))
	}
	return out
}

// runO2 runs the O2 pipeline over one typed copy of each module.
func runO2(t testing.TB, set []pipelineEntry, mods []*wir.Module) {
	for i, pe := range set {
		opts := pe.c.Options
		opts.OptimizationLevel = 2
		if err := passes.RunPipeline(mods[i], &passes.Context{Env: pe.c.TypeEnv, Opts: opts}); err != nil {
			t.Fatalf("%s: %v", pe.e.Name, err)
		}
	}
}

// The pipeline allocates in proportion to its work: its passes index what
// they count by instruction id, key CSE on a struct and substitute through
// one table, where they used to rebuild maps keyed by value and a string per
// call on every scan. Before that change one run over these modules made
// 6 421 allocations, and 1 760 before CSE stopped analysing functions with
// fewer than two pure calls and the pipeline was built once per
// configuration. The modules are lowered and typed outside the measurement.
func TestPipelineAllocations(t *testing.T) {
	const bound = 1700
	set := pipelineEntries(t)
	const runs = 5
	copies := make([][]*wir.Module, runs+1) // AllocsPerRun warms up once
	for k := range copies {
		for _, pe := range set {
			copies[k] = append(copies[k], typedCorpusModule(t, pe.e, pe.c))
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		runO2(t, set, copies[next])
		next++
	})
	t.Logf("%.0f allocations per pipeline run over %d modules", allocs, len(set))
	if allocs > bound {
		t.Errorf("%.0f allocations per pipeline run over %d modules, bound %d", allocs, len(set), bound)
	}
}

// BenchmarkPipeline is a cold compile's middle: lower, infer and optimise
// the same modules.
func BenchmarkPipeline(b *testing.B) {
	set := pipelineEntries(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mods := make([]*wir.Module, len(set))
		for i, pe := range set {
			mods[i] = typedCorpusModule(b, pe.e, pe.c)
		}
		runO2(b, set, mods)
	}
}
