package main

import (
	"bytes"
	"os"
	"testing"
)

// The checked-in fusion_modes.go is exactly what the table generates: an
// edit to one without the other fails here (scripts/verify.sh relies on it).
func TestGeneratedFileIsFresh(t *testing.T) {
	want, err := generate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../fusion_modes.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("internal/codegen/fusion_modes.go is stale: run `go generate ./internal/codegen`")
	}
}
