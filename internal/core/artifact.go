// The artifact store under the compile cache (ROADMAP item 4): compiled
// modules are persisted to a store keyed by the stable key, so a new process,
// or this one after ResetCompileCache, skips the front half of the pipeline
// (macro → binding → lower → infer → passes) and only re-runs code generation
// against the hosting kernel, exactly the LibraryFunctionLoad rebinding
// model. The program a load generates is filed in the program table like a
// compile's (cache.go), so within a process each entry is read once.
package core

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"wolfc/internal/artifact"
	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/obs"
)

// artifactStore is the process-wide store; nil disables it. Swapped
// atomically so tools can attach a store after flag parsing while
// background tier compiles are already running.
var artifactStore atomic.Pointer[artifact.Store]

// ArtifactStore returns the attached store, or nil when the compile cache
// lives in this process only.
func ArtifactStore() *artifact.Store { return artifactStore.Load() }

// SetArtifactStore attaches (or, with nil, detaches) the store and returns
// the previous one. The program table stays: its programs are named by what
// was compiled, not by where the bytes came from.
func SetArtifactStore(s *artifact.Store) *artifact.Store {
	return artifactStore.Swap(s)
}

// EnableArtifactStore opens dir as the process-wide artifact store (the
// -artifact-dir / WOLFC_ARTIFACT_DIR wiring used by the tools).
func EnableArtifactStore(dir string) (*artifact.Store, error) {
	s, err := artifact.Open(dir)
	if err != nil {
		return nil, err
	}
	SetArtifactStore(s)
	return s, nil
}

func init() {
	// Store gauges ride the same inverted-dependency provider as the
	// compile cache (cache.go); families appear once a store attaches.
	obs.RegisterGaugeProvider(func() []obs.Gauge {
		s := ArtifactStore()
		if s == nil {
			return nil
		}
		st := s.Stats()
		return []obs.Gauge{
			{Name: "artifact_store_hits_total", Value: float64(st.Hits)},
			{Name: "artifact_store_misses_total", Value: float64(st.Misses)},
			{Name: "artifact_store_writes_total", Value: float64(st.Writes)},
			{Name: "artifact_store_write_errors_total", Value: float64(st.WriteErrors)},
			{Name: "artifact_store_corrupt_drops_total", Value: float64(st.CorruptDrops)},
			{Name: "artifact_store_evictions_total", Value: float64(st.Evictions)},
			{Name: "artifact_store_bytes", Value: float64(st.BytesOnDisk)},
			{Name: "artifact_store_entries", Value: float64(st.Entries)},
		}
	})
}

// loadArtifact probes the store for a module compiled under the same stable
// key and, on a hit, regenerates executable code for it in this compiler.
// Every failure mode is a soft miss (return nil): the caller falls through to
// a full compile, and undecodable payloads are dropped from the store so they
// are not re-probed forever. A load records its decode and codegen stages on
// rep (nil when no report was asked for).
func (c *Compiler) loadArtifact(stableKey string, fn expr.Expr, req CompileRequest, rep *CompileReport) *CompiledCodeFunction {
	s := ArtifactStore()
	if s == nil {
		return nil
	}
	payload, ok := s.Get(stableKey)
	if !ok {
		return nil
	}
	// The backend options are part of the stable key, so the regenerated
	// program is the one the storing process ran.
	ccf, err := c.load(bytes.NewReader(payload), fn, req.SelfName, c.backend()+"-aot", rep)
	if err != nil {
		s.DropUndecodable(stableKey)
		return nil
	}
	return ccf
}

// load decodes a typed module and generates code for it with this
// compiler's backend: the one path by which both the artifact store and
// LoadCompiledLibrary turn bytes into a function. The input is untrusted (the
// store reads it straight off disk). The decoder bounds-checks everything it
// can, but a mutated module that is still lint-clean can trip the backend in
// ways no structural check anticipates; the backstop turns any such panic
// into an error, so corrupt input can never take the process down. Encoded
// modules never carry registry calls (maybeStoreArtifact and ExportLibrary
// refuse them), so the function has no RegDeps.
func (c *Compiler) load(r io.Reader, fn expr.Expr, selfName, label string, rep *CompileReport) (ccf *CompiledCodeFunction, err error) {
	defer func() {
		if p := recover(); p != nil {
			ccf, err = nil, fmt.Errorf("import: corrupt library: %v", p)
		}
	}()
	t := startTimer(rep)
	mod, err := codegen.Unmarshal(r, c.TypeEnv)
	if err != nil {
		return nil, err
	}
	rep.stage("decode", t)
	t = startTimer(rep)
	prog, err := c.generate(mod)
	if err != nil {
		return nil, err
	}
	if ccf, err = c.wrap(prog, fn, selfName, label, nil); err != nil {
		return nil, fmt.Errorf("import: %w", err)
	}
	rep.stage("codegen", t)
	return ccf, nil
}

// maybeStoreArtifact persists a freshly compiled module to the store.
// Functions that call process-registry entries (RegDeps) are process-
// local — their baked call targets die with this process — and are never
// written, the same gate ExportLibrary enforces. Serialisation failures
// are swallowed: the store is an optimisation, not a dependency.
func (c *Compiler) maybeStoreArtifact(stableKey string, ccf *CompiledCodeFunction) {
	s := ArtifactStore()
	if s == nil || ccf == nil || ccf.Module == nil {
		return
	}
	if len(ccf.RegDeps) > 0 || !ccf.Module.Typed {
		return
	}
	buf := encodeBufs.Get().(*bytes.Buffer)
	defer encodeBufs.Put(buf)
	buf.Reset()
	if err := codegen.Marshal(buf, ccf.Module); err != nil {
		return
	}
	s.Put(stableKey, buf.Bytes()) // Put keeps a copy
}

// encodeBufs are the buffers modules are encoded into on their way to the
// store.
var encodeBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}
