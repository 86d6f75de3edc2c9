package core

import (
	"time"

	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/infer"
	"wolfc/internal/obs"
	"wolfc/internal/passes"
)

// StageTime records the wall-clock duration of one stage of a compile
// (macro expansion, binding, lowering, inference, resolution, the pass
// pipeline, code generation) or of a cached lookup (key: both digests and,
// for a source the process has not keyed before, its macro expansion; decode:
// the artifact read and module decode; codegen; or, in place of decode and
// codegen, resident: the artifact read and wrapping the program an earlier
// load generated from the same bytes).
type StageTime struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// CompileReport is the instrumentation record FunctionCompile produces on
// request: per-stage timings for the staged pipeline (§4), the pass
// manager's per-pass stats and fixpoint trip counts, and whether this
// invocation was served from the process-wide compile cache. Reports are
// only built when asked for (CompileRequest.Collect), so the default
// compile path carries no timing overhead.
type CompileReport struct {
	Stages []StageTime    `json:"stages,omitempty"`
	Passes *passes.Report `json:"passes,omitempty"`
	// Solver is how much work inference's solver did on the function's own
	// module (implementations resolved afterwards are inferred apart and not
	// counted): alternatives, trials, commits, stalls. Nil for a stencil
	// compile, which runs no solver.
	Solver   *infer.Counts `json:"solver,omitempty"`
	CacheHit bool          `json:"cache_hit"`
	// ArtifactHit marks an invocation served from the disk artifact store:
	// the typed module was loaded and only code generation re-ran (or, for
	// bytes another kernel in this process already loaded, neither ran), the
	// front half of the pipeline (macro → binding → lower → infer →
	// passes) was skipped entirely.
	ArtifactHit bool `json:"artifact_hit,omitempty"`
}

// CompileRequest carries per-invocation compile context.
type CompileRequest struct {
	// SelfName rewrites self-references through this symbol into recursion
	// (the paper's cfib).
	SelfName string
	// Source, when non-nil, is the parse-time span table; diagnostics from
	// every stage are resolved against it to file:line:col positions, and
	// spans are propagated through macro expansion and binding.
	Source *diag.Source
	// VerifyEach makes the pass manager run the SSA linter after every
	// pass, naming the offending pass on failure.
	VerifyEach bool
	// Collect builds a CompileReport, available on the returned
	// CompiledCodeFunction.
	Collect bool
	// Span correlates this compile's trace events to the request that
	// asked for it (ISSUE 9). Zero = resolve implicitly from the hosting
	// kernel's active span; the tiering workers set it explicitly because
	// they compile on behalf of a request that queued the job earlier.
	// Never part of the cache key: identical sources from different
	// requests must still coalesce.
	Span obs.SpanContext

	// expanded, when non-nil, is the function's macro expansion under this
	// compiler and Source: the cached path made it to find the cache key and
	// the compile that follows a miss starts from it.
	expanded expr.Expr
}

// startTimer returns the stage start time, or the zero time when no report
// is being collected (keeping time syscalls off the default path).
func startTimer(rep *CompileReport) time.Time {
	if rep == nil {
		return time.Time{}
	}
	return time.Now()
}

// stage appends a completed stage measurement; no-op without a report.
func (rep *CompileReport) stage(name string, start time.Time) {
	if rep == nil {
		return
	}
	rep.Stages = append(rep.Stages, StageTime{Name: name, Duration: time.Since(start)})
}

// PipelineDescription renders the pass schedule the compiler's current
// options would produce (surfaced by wolfc -explain).
func (c *Compiler) PipelineDescription() string {
	return passes.DefaultPipeline(c.Options).Describe()
}

// TotalDuration sums the recorded stage durations.
func (rep *CompileReport) TotalDuration() time.Duration {
	var d time.Duration
	if rep == nil {
		return d
	}
	for _, s := range rep.Stages {
		d += s.Duration
	}
	return d
}
