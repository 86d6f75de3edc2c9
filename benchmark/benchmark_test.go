package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// repoSnapshot maps every file of the repository outside the benchmark's
// own paths to its size and modification time.
func repoSnapshot(t *testing.T) map[string]string {
	t.Helper()
	snap := map[string]string{}
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel("..", path)
		if d.IsDir() {
			if rel == ".git" || rel == "benchmark" || rel == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if rel == "BENCHMARK.json" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		snap[rel] = fmt.Sprint(info.ModTime(), info.Mode(), info.Size())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestWorkloadsRun drives every workload through the same code path as the
// real benchmark, with a short window, and checks that the result carries
// exactly the catalogue's metrics, that none is zero and that no operation
// failed. It also runs under -race, where the multi-client workloads
// exercise the harness from several goroutines.
func TestWorkloadsRun(t *testing.T) {
	before := repoSnapshot(t)
	for _, w := range workloads {
		doc, err := runEndToEnd(w.name, 1, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		r := doc.Result
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d metrics, catalogue has %d", w.name, len(r.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit || !(v.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v)", w.name, m.Name, v, ok)
			}
		}
	}
	after := repoSnapshot(t)
	for path, sig := range after {
		if before[path] != sig {
			t.Errorf("the benchmark wrote %s, outside benchmark/ and BENCHMARK.json", path)
		}
	}
}

// TestPerLayerSuiteRuns runs the -trace 1 suite once with the smallest
// window (every section still makes one full pass) and checks that every
// catalogued metric comes out and every verified operation passed.
func TestPerLayerSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("one full pass of every layer section takes several seconds")
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	doc, err := runPerLayer("serve_hot", 1, 200*time.Millisecond, trace)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.Result
	if !r.Correct || r.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	for _, m := range perLayerMetrics {
		if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("metric %s = %+v (present %v)", m.Name, v, ok)
		}
	}
	if r.Metrics["core.compile_stage_share"].Value < 0.9 {
		t.Errorf("the stage spans cover %.2f of core.compile_o2_us, want >= 0.9", r.Metrics["core.compile_stage_share"].Value)
	}
	if info, err := os.Stat(trace); err != nil || info.Size() == 0 {
		t.Errorf("no Chrome trace written: %v", err)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesCatalogue keeps BENCHMARK.json and the program in step:
// same workloads, same metric names, units, directions and bounds.
func TestSpecMatchesCatalogue(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
		if !metricName.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or why too long", w.name)
		}
		seen[w.name] = true
	}
	compare := func(kind string, have, want []metricSpec, bounded bool) {
		if len(have) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(have), len(want))
		}
		byName := map[string]metricSpec{}
		for _, m := range have {
			byName[m.Name] = m
		}
		for _, m := range want {
			if !metricName.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.Name)
			}
			seen[m.Name] = true
			if h, ok := byName[m.Name]; !ok || h != m {
				t.Errorf("%s: BENCHMARK.json has %+v, the program %+v", kind, h, m)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: %s has bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayerMetrics, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" || spec.RunSeconds != defaultSeconds {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}

// TestExpectedFilesCoverEveryInput checks that expected/*.txt has a line
// for every program variant, small and full, and every query of every pool.
func TestExpectedFilesCoverEveryInput(t *testing.T) {
	wantP, err := expectedPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range programs() {
		for v := 0; v < p.variants; v++ {
			for _, small := range []bool{true, false} {
				if wantP[expectedKey(p, v, small)] == "" {
					t.Errorf("expected/programs.txt has no line for %s", expectedKey(p, v, small))
				}
			}
		}
	}
	if _, err := queryPools(allKernels()); err != nil {
		t.Error(err)
	}
}
