// The disk tier of the compile cache (ROADMAP item 4): compiled modules
// are persisted to an artifact store keyed by the process-independent
// half of the content key (cacheKeys.stable), so warm starts — a new
// process, or this process after ResetCompileCache — skip the front half
// of the pipeline (macro → binding → lower → infer → passes) and only
// re-run code generation against the hosting kernel, exactly the
// LibraryFunctionLoad rebinding model.
//
// Code generation needs no kernel either (the engine reaches compiled code
// per call, through RT.Engine), so the program a load generates is kept
// resident: the next kernel that loads the same bytes wraps that program in
// a CompiledCodeFunction of its own and skips decode and codegen too.
package core

import (
	"bytes"
	"sync/atomic"

	"wolfc/internal/artifact"
	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/obs"
	"wolfc/internal/wir"
)

// artifactStore is the process-wide disk tier; nil disables it. Swapped
// atomically so tools can attach a store after flag parsing while
// background tier compiles are already running.
var artifactStore atomic.Pointer[artifact.Store]

// ArtifactStore returns the attached disk tier, or nil when the compile
// cache is memory-only.
func ArtifactStore() *artifact.Store { return artifactStore.Load() }

// SetArtifactStore attaches (or, with nil, detaches) the disk tier and
// returns the previous store. The resident programs go with the store they
// were read from.
func SetArtifactStore(s *artifact.Store) *artifact.Store {
	prev := artifactStore.Swap(s)
	residents.reset()
	return prev
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
	// Disk-tier gauges ride the same inverted-dependency provider as the
	// in-memory cache (cache.go); families appear once a store attaches.
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

// resident is what one load decoded and generated from a store entry: the
// entry's bytes, the typed module and the program. None of it refers to a
// kernel, a registry or a compiler, so any number of CompiledCodeFunctions in
// any number of kernels can share it.
type resident struct {
	payload []byte
	mod     *wir.Module
	prog    *codegen.Program
}

// residents holds the programs loads generated, by stable key. Programs
// become resident on load, never on write: a compile that no second kernel
// asks for (a one-shot, every compile of a process that restarts) keeps
// nothing here.
var residents = genMemo[string, *resident]{cap: 256}

// residentHits counts loads served by a resident program.
var residentHits atomic.Uint64

// loadArtifact probes the disk tier for a module compiled under the same
// stable content key and, on a hit, regenerates executable code for it in
// this compiler — or wraps the program an earlier load generated from the
// same bytes. Every failure mode is a soft miss (return nil): the caller
// falls through to a full compile, and undecodable payloads are dropped from
// the store so they are not re-probed forever. A load records its stages on
// rep (nil when no report was asked for): resident, or decode and codegen.
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
	label := c.backend() + "-aot"
	// The store is read first and decides: an entry it evicted, dropped or
	// holds other bytes for is never served from memory. A profiled program
	// is never shared, because its block counters are atomics inside CFunc
	// and two kernels would count into one profile.
	shareable := c.ProfileLevel == 0
	if r, ok := residents.get(stableKey); ok && shareable && bytes.Equal(r.payload, payload) {
		if shared, err := c.wrap(r.mod, r.prog, fn, req.SelfName, label, nil); err == nil {
			residentHits.Add(1)
			rep.stage("resident", t)
			return shared
		}
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
		ccf, err = c.wrap(mod, prog, fn, req.SelfName, label, nil)
	}
	if err != nil {
		s.DropUndecodable(stableKey)
		return nil
	}
	rep.stage("codegen", t)
	if shareable {
		residents.put(stableKey, &resident{payload: payload, mod: mod, prog: prog})
	}
	return ccf
}

// maybeStoreArtifact persists a freshly compiled module to the disk tier.
// Functions that call process-registry entries (RegDeps) are process-
// local — their baked call targets die with this process — and are never
// written, the same gate ExportLibrary enforces. Serialisation failures
// are swallowed: the disk tier is an optimisation, not a dependency.
func (c *Compiler) maybeStoreArtifact(stableKey string, ccf *CompiledCodeFunction) {
	s := ArtifactStore()
	if s == nil || ccf == nil || ccf.Module == nil {
		return
	}
	if len(ccf.RegDeps) > 0 || !ccf.Module.Typed {
		return
	}
	var buf bytes.Buffer
	if err := codegen.Marshal(&buf, ccf.Module); err != nil {
		return
	}
	s.Put(stableKey, buf.Bytes())
}
