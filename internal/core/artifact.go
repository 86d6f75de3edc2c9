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
//
// Serialised modules never carry registry calls (maybeStoreArtifact gates
// them), so a loaded function has no RegDeps and wrap is told so.
func (c *Compiler) loadArtifact(stableKey string, fn expr.Expr, req CompileRequest, rep *CompileReport) (ccf *CompiledCodeFunction) {
	s := ArtifactStore()
	if s == nil {
		return nil
	}
	t := startTimer(rep)
	payload, ok := s.Get(stableKey)
	if !ok {
		return nil
	}
	// Same backstop as LoadCompiledLibrary: a checksum-clean payload from
	// an incompatible writer must degrade to a recompile, never a crash.
	defer func() {
		if p := recover(); p != nil {
			s.DropUndecodable(stableKey)
			ccf = nil
		}
	}()
	mod, err := codegen.Unmarshal(bytes.NewReader(payload), c.TypeEnv)
	if err != nil {
		s.DropUndecodable(stableKey)
		return nil
	}
	// Re-run the backend this compiler is configured for. The backend
	// options are part of the stable key, so the regenerated program is
	// the one the storing process ran.
	rep.stage("decode", t)
	t = startTimer(rep)
	prog, err := c.generate(mod)
	if err == nil {
		ccf, err = c.wrap(mod, prog, fn, req.SelfName, c.backend()+"-aot", nil)
	}
	if err != nil {
		s.DropUndecodable(stableKey)
		return nil
	}
	rep.stage("codegen", t)
	return ccf
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
