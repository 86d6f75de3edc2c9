package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	cases := []struct {
		name  string
		spans []span
		want  []int64
	}{
		{"nested", []span{
			{name: "a", start: 0, end: 100, parent: -1},
			{name: "b", start: 10, end: 90, parent: 0},
			{name: "c", start: 20, end: 50, parent: 1},
		}, []int64{20, 50, 30}},
		{"siblings", []span{
			{name: "a", start: 0, end: 100, parent: -1},
			{name: "b", start: 10, end: 30, parent: 0},
			{name: "c", start: 40, end: 70, parent: 0},
		}, []int64{50, 20, 30}},
		{"overlapping children are covered once", []span{
			{name: "a", start: 0, end: 100, parent: -1},
			{name: "b", start: 10, end: 60, parent: 0},
			{name: "c", start: 40, end: 80, parent: 0},
		}, []int64{30, 50, 40}},
		{"child recorded out of order and running past its parent", []span{
			{name: "a", start: 0, end: 100, parent: -1},
			{name: "c", start: 70, end: 130, parent: 0},
			{name: "b", start: 10, end: 20, parent: 0},
		}, []int64{60, 60, 10}},
		{"child inside another child", []span{
			{name: "a", start: 0, end: 100, parent: -1},
			{name: "b", start: 10, end: 90, parent: 0},
			{name: "c", start: 20, end: 30, parent: 0},
		}, []int64{20, 80, 10}},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s: span %s: self time %d, want %d", c.name, c.spans[i].name, got[i], c.want[i])
			}
		}
	}
}

func TestTracerRecordsAndExports(t *testing.T) {
	var none *tracer
	if id := none.begin("x", -1, 0); id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	none.end(-1)
	ran := false
	none.in("x", -1, 0, func(int) { ran = true })
	if !ran {
		t.Error("nil tracer did not run the function")
	}

	tr := newTracer()
	tr.in("op", -1, 7, func(root int) {
		tr.in("layer", root, 7, func(int) {})
	})
	dur, self := tr.byName(0)
	if len(dur["op"]) != 1 || len(dur["layer"]) != 1 {
		t.Fatalf("spans by name: %v", dur)
	}
	if self["op"][0] > dur["op"][0] || self["op"][0] != dur["op"][0]-dur["layer"][0] {
		t.Errorf("op: duration %v, child %v, self %v", dur["op"][0], dur["layer"][0], self["op"][0])
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "layer" || doc.TraceEvents[1].Ph != "X" ||
		doc.TraceEvents[1].Tid != 7 || doc.TraceEvents[1].Args["parent"] != float64(0) {
		t.Errorf("chrome trace: %s", data)
	}
}
