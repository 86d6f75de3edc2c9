package codegen

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"wolfc/internal/types"
)

// emptyCells are the library natives with no C spelling, the C backend's
// remaining work: the list may only shrink. A row added for one of them must
// take it off the list.
var emptyCells = []string{"expr_binary_plus", "expr_binary_power", "expr_binary_times",
	"gaussian_blur", "histogram_bins", "pattern_miss"}

// libraryNatives is every native a row of the standard library names.
func libraryNatives() map[string]bool {
	env := types.Builtin()
	out := map[string]bool{}
	for _, name := range env.FuncNames() {
		for _, d := range env.Lookup(name) {
			if d.Native != "" && d.Impl == nil {
				out[d.Native] = true
			}
		}
	}
	return out
}

// TestCEmptyCells: every library native has a cNatives row but the empty
// cells, and every row spells a library native.
func TestCEmptyCells(t *testing.T) {
	natives := libraryNatives()
	spelt := map[string]bool{}
	for k := range cNatives {
		spelt[k.native] = true
		if !natives[k.native] {
			t.Errorf("cNatives has a row for %s, which no library row names", k.native)
		}
	}
	var empty []string
	for n := range natives {
		if !spelt[n] {
			empty = append(empty, n)
		}
	}
	slices.Sort(empty)
	if !slices.Equal(empty, emptyCells) {
		t.Errorf("natives without a C spelling: %v, want %v", empty, emptyCells)
	}
}

// A module that calls an empty cell is an EmitC error naming the native, not
// C that calls a runtime function no header defines.
func TestEmitCNamesAnEmptyCell(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[a, "Tensor"["Real64", 2]]}, Native`+"`"+`GaussianBlur[a]]`)
	src, err := EmitC(prog.Module, types.Builtin())
	if !errors.Is(err, ErrNoCSpelling) || !strings.Contains(err.Error(), "gaussian_blur") {
		t.Fatalf("EmitC = (%q, %v), want an error naming gaussian_blur", src, err)
	}
}
