package codegen_test

import (
	"bytes"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/infer"
	"wolfc/internal/passes"
	"wolfc/internal/testcorpus"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// corpusModule is one corpus module as the artifact store holds it: typed,
// resolved and through the O2 pipeline, with its compiler's environment.
type corpusModule struct {
	name string
	mod  *wir.Module
	env  *types.Env
}

func corpusModules(tb testing.TB) []corpusModule {
	tb.Helper()
	var out []corpusModule
	for _, e := range testcorpus.All(tb) {
		c := e.Compiler()
		mod, err := e.Untyped(c)
		if err == nil {
			err = infer.InferWith(mod, c.TypeEnv, c.Registry)
		}
		if err == nil {
			err = c.ResolveFunctions(mod)
		}
		if err == nil {
			err = passes.RunPipeline(mod, &passes.Context{Env: c.TypeEnv, Opts: c.Options})
		}
		if err != nil {
			tb.Fatalf("%s: %v", e.Name, err)
		}
		out = append(out, corpusModule{e.Name, mod, c.TypeEnv})
	}
	return out
}

// corpusPayloads is Marshal of every corpus module.
func corpusPayloads(tb testing.TB) map[string][]byte {
	tb.Helper()
	out := map[string][]byte{}
	for _, m := range corpusModules(tb) {
		var buf bytes.Buffer
		if err := codegen.Marshal(&buf, m.mod); err != nil {
			tb.Fatalf("%s: %v", m.name, err)
		}
		out[m.name] = buf.Bytes()
	}
	return out
}

// remarshal decodes a payload and encodes what it got.
func remarshal(t *testing.T, payload []byte) []byte {
	t.Helper()
	mod, err := codegen.Unmarshal(bytes.NewReader(payload), types.Builtin())
	if err != nil {
		t.Fatalf("a marshalled module does not load: %v", err)
	}
	var buf bytes.Buffer
	if err := codegen.Marshal(&buf, mod); err != nil {
		t.Fatalf("a loaded module does not marshal: %v", err)
	}
	return buf.Bytes()
}

// What Marshal writes for a corpus module, Unmarshal reads back as a module
// Marshal writes the same way: nothing is lost or reordered, the type table
// included.
func TestMarshalRoundTripsTheCorpus(t *testing.T) {
	payloads := corpusPayloads(t)
	if len(payloads) < 40 {
		t.Fatalf("only %d corpus modules", len(payloads))
	}
	for name, payload := range payloads {
		if got := remarshal(t, payload); !bytes.Equal(got, payload) {
			t.Errorf("%s: %d bytes marshalled, %d after a round trip", name, len(payload), len(got))
		}
	}
}

// FuzzUnmarshal: whatever the bytes, Unmarshal returns an error or a module
// that lints and that Marshal can write; and what Marshal writes for it
// round-trips exactly. (The input itself need not: a varint has more than one
// spelling, and a stream may define a type twice.) It must never panic — the
// artifact store hands it bytes from disk.
func FuzzUnmarshal(f *testing.F) {
	for _, payload := range corpusPayloads(f) {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mod, err := codegen.Unmarshal(bytes.NewReader(data), types.Builtin())
		if err != nil {
			return
		}
		if err := mod.Lint(); err != nil {
			t.Fatalf("Unmarshal returned a module that does not lint: %v", err)
		}
		var buf bytes.Buffer
		if err := codegen.Marshal(&buf, mod); err != nil {
			t.Fatalf("a loaded module does not marshal: %v", err)
		}
		if again := remarshal(t, buf.Bytes()); !bytes.Equal(again, buf.Bytes()) {
			t.Fatalf("marshalled form is not a fixed point: %d bytes, then %d", buf.Len(), len(again))
		}
	})
}
