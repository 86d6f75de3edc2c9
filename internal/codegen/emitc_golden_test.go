package codegen_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wolfc/internal/codegen"
)

// hygienic matches the process-wide counter a hygienic rename carries (x`h17,
// which C spells x_h17), so the golden does not depend on test order.
var hygienic = regexp.MustCompile("([`_])h[0-9]+")

// TestEmitCGolden holds the C backend's output for every corpus module, or
// the error with which EmitC refuses it, to testdata/emitc.golden: a change
// to how the backend spells a native must leave the emitted C alone. With
// the file deleted, the test writes it from this build and fails once.
func TestEmitCGolden(t *testing.T) {
	var b strings.Builder
	for _, m := range corpusModules(t) {
		fmt.Fprintf(&b, "=== %s\n", m.name)
		src, err := codegen.EmitC(m.mod, m.env)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		b.WriteString(src)
	}
	got := hygienic.ReplaceAllString(b.String(), "${1}h_")
	path := filepath.Join("testdata", "emitc.golden")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s from this build: check it in", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("C differs from testdata/emitc.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatalf("C is a strict prefix of testdata/emitc.golden (%d of %d lines)", len(gl), len(wl))
	}
}

// TestEmitCCompiles compiles the C of every corpus module EmitC accepts, one
// translation unit each, with the runtime inlined and warnings as errors: a
// module EmitC accepts must be C that wolfrt.h can link, and what wolfrt.h
// cannot spell EmitC must refuse by name.
func TestEmitCCompiles(t *testing.T) {
	cc, err := exec.LookPath("cc")
	if err != nil {
		t.Skip("no C compiler on PATH")
	}
	dir := t.TempDir()
	for _, m := range corpusModules(t) {
		src, err := codegen.EmitC(m.mod, m.env)
		if err != nil {
			continue
		}
		path := filepath.Join(dir, m.name+".c")
		if err := os.WriteFile(path, []byte(codegen.InlineCRuntime(src)), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(cc, "-std=c11", "-Wall", "-Werror", "-c", "-o", path+".o", path).CombinedOutput()
		if err != nil {
			t.Errorf("%s: cc: %v\n%s", m.name, err, out)
		}
	}
}
