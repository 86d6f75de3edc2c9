package main

import (
	"bytes"
	"os"
	"testing"
)

// The checked-in generated files are exactly what the table generates: an
// edit to one without the other fails here (scripts/verify.sh relies on it).
func TestGeneratedFileIsFresh(t *testing.T) {
	modes, kinds, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"fusion_modes.go": modes, "part_kinds.go": kinds} {
		got, err := os.ReadFile("../" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("internal/codegen/%s is stale: run `go generate ./internal/codegen`", name)
		}
	}
}
