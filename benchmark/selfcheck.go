package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is
// what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		m := float64(len(s)+1) * float64(k) / 4
		j := int(m)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := m - float64(j)
		return s[j-1] + (s[j]-s[j-1])*d
	}
	return at(1), at(2), at(3)
}

// selfcheck runs every workload runs times on this same code, each time
// with another seed, and prints per end-to-end metric the median, the
// quartiles and (Q3-Q1)/median beside the bound from BENCHMARK.json. It
// returns 1 if any spread but setup_s's exceeds its bound: the bounds are
// confirmed or tightened from this output.
func selfcheck(specPath string, runs int, seed int64, seconds float64) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fatalf("%v", err)
	}
	if runs < 2 {
		fatalf("-selfcheck needs at least 2 runs")
	}
	code := 0
	fmt.Printf("%-18s %-20s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range spec.Workloads {
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			line, err := runChild(w.Name, seed+int64(r), seconds, 0)
			if err != nil {
				fatalf("%s: %v", w.Name, err)
			}
			var res resultLine
			if err := json.Unmarshal(line, &res); err != nil {
				fatalf("%s: %v", w.Name, err)
			}
			if !res.Correct {
				fmt.Printf("%s: %d of %d operations failed\n", w.Name, res.Failed, res.Attempted)
				code = 1
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			spread := (q3 - q1) / q2
			verdict := ""
			if spread > m.Bound && m.Name != "setup_s" {
				verdict = "  > bound"
				code = 1
			}
			fmt.Printf("%-18s %-20s %12.4f %12.4f %12.4f %8.3f %6.2f%s\n", w.Name, m.Name, q1, q2, q3, spread, m.Bound, verdict)
		}
	}
	return code
}
