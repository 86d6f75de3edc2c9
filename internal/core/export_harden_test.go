package core

import (
	"bytes"
	"fmt"
	"testing"
)

// The artifact store feeds LoadCompiledLibrary untrusted bytes straight
// from disk, so the decoder must reject — never panic on — arbitrarily
// mangled input. These are fuzz-style deterministic sweeps: every
// truncation point and a dense grid of single-bit flips over a real
// export.

func exportedLibrary(t *testing.T) []byte {
	t.Helper()
	c := newCompiler()
	ccf := compile(t, c, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i*i; i++]; s]]`)
	var buf bytes.Buffer
	if err := ccf.ExportLibrary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadSafely loads the mangled bytes, converting any panic into a test
// failure that names the offending offset.
func loadSafely(t *testing.T, c *Compiler, raw []byte, label string) (panicked bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			t.Errorf("%s: LoadCompiledLibrary panicked: %v", label, r)
		}
	}()
	// Rarely a mutation leaves a decodable, lint-clean module (e.g. a
	// flipped bit inside a constant or a capture flag). A successful load
	// is acceptable — the store's payload checksum rejects real corruption
	// before decode ever runs; this sweep only asserts the decoder and
	// backend cannot be crashed by what slips through.
	LoadCompiledLibrary(c, bytes.NewReader(raw), false)
	return false
}

func TestLoadCompiledLibraryTruncationNeverPanics(t *testing.T) {
	raw := exportedLibrary(t)
	c := newCompiler()
	for n := 0; n < len(raw); n++ {
		if loadSafely(t, c, raw[:n], fmt.Sprintf("truncated to %d/%d bytes", n, len(raw))) {
			return
		}
		// Truncations can never load successfully; they must error.
		if _, err := LoadCompiledLibrary(c, bytes.NewReader(raw[:n]), false); err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded without error", n, len(raw))
		}
	}
}

func TestLoadCompiledLibraryBitFlipsNeverPanic(t *testing.T) {
	raw := exportedLibrary(t)
	c := newCompiler()
	for off := 0; off < len(raw); off++ {
		for _, bit := range []byte{0x01, 0x10, 0x80} {
			mangled := append([]byte(nil), raw...)
			mangled[off] ^= bit
			if loadSafely(t, c, mangled, fmt.Sprintf("bit 0x%02x flipped at offset %d", bit, off)) {
				return
			}
		}
	}
}

func TestLoadCompiledLibraryGarbageNeverPanics(t *testing.T) {
	c := newCompiler()
	cases := [][]byte{
		nil,
		[]byte("WCLB0002"), // magic only
		[]byte("WCLB0002\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), // huge varint count
		bytes.Repeat([]byte{0xff}, 4096),
		append([]byte("WCLB0002"), bytes.Repeat([]byte{0x07}, 512)...),
	}
	for i, raw := range cases {
		if loadSafely(t, c, raw, fmt.Sprintf("garbage case %d", i)) {
			return
		}
		if _, err := LoadCompiledLibrary(c, bytes.NewReader(raw), false); err == nil {
			t.Fatalf("garbage case %d loaded without error", i)
		}
	}
}
