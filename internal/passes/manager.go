package passes

import (
	"fmt"
	"strings"
	"time"

	"wolfc/internal/diag"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// This file is the pass manager: the pipeline is data, not control flow.
// Each optimisation or lowering step is a named Pass; a Pipeline sequences
// passes and fixpoint groups of passes; a Context carries everything a pass
// may consult (type env, options) plus the instrumentation switches. The
// manager owns the fixpoint loops, per-pass wall-clock timing, changed/IR-
// size counters, the between-pass SSA verifier (verify-each mode), and the
// recover wrapper that tags internal pass panics with the offending pass's
// name. Keeping that machinery here means individual passes stay small
// functions `*wir.Module -> changed`, the nanopass shape the paper's staged
// pipeline (§4) wants.

// Context is the shared compilation context threaded through every pass.
type Context struct {
	// Env is the type environment the module was typed in.
	Env *types.Env
	// Opts are the pipeline options the passes may consult.
	Opts Options
	// VerifyEach runs the SSA linter after every pass, so a broken pass is
	// caught at the pass that broke it rather than at codegen.
	VerifyEach bool
	// Report, when non-nil, accumulates per-pass statistics. Leaving it nil
	// keeps all timing calls off the hot path.
	Report *Report
}

// Pass is one named, self-describing unit of the pipeline. Run returns
// whether it changed the module; fixpoint groups iterate until no member
// reports a change.
type Pass struct {
	Name string
	Run  func(mod *wir.Module, ctx *Context) (changed bool, err error)
}

// PassStat accumulates one pass's observable behaviour across a compile.
type PassStat struct {
	Name string `json:"name"`
	// Runs counts invocations (fixpoint members run once per trip).
	Runs int `json:"runs"`
	// Changed counts the invocations that reported a change.
	Changed int `json:"changed"`
	// Duration is total wall-clock time across all runs.
	Duration time.Duration `json:"duration_ns"`
	// InstrsBefore/InstrsAfter are the module instruction counts around the
	// first and last run, so a pass's net effect on IR size is visible.
	InstrsBefore int `json:"instrs_before"`
	InstrsAfter  int `json:"instrs_after"`
}

// Report is the manager's instrumentation record for one pipeline run.
type Report struct {
	// Passes holds per-pass stats in first-execution order.
	Passes []*PassStat `json:"passes"`
	// Trips maps each fixpoint group to the number of trips it took.
	Trips map[string]int `json:"fixpoint_trips,omitempty"`

	byName map[string]*PassStat
}

// NewReport returns an empty instrumentation record.
func NewReport() *Report {
	return &Report{Trips: map[string]int{}, byName: map[string]*PassStat{}}
}

func (r *Report) stat(name string) *PassStat {
	if s, ok := r.byName[name]; ok {
		return s
	}
	s := &PassStat{Name: name}
	if r.byName == nil {
		r.byName = map[string]*PassStat{}
	}
	r.byName[name] = s
	r.Passes = append(r.Passes, s)
	return s
}

// ModuleSize counts instructions and phis module-wide; the manager records
// it around each pass as the IR-size counter.
func ModuleSize(mod *wir.Module) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs) + len(b.Phis)
		}
	}
	return n
}

// unit is one pipeline element: a single pass, or a fixpoint group.
type unit struct {
	pass     Pass
	group    []Pass
	name     string // group name (for trip counts)
	maxTrips int
}

// Pipeline is an ordered sequence of passes and fixpoint groups.
type Pipeline struct {
	units []unit
}

// Add appends single passes run exactly once each.
func (p *Pipeline) Add(passes ...Pass) *Pipeline {
	for _, ps := range passes {
		p.units = append(p.units, unit{pass: ps})
	}
	return p
}

// AddFixpoint appends a group iterated until no member changes the module
// or maxTrips is reached.
func (p *Pipeline) AddFixpoint(name string, maxTrips int, passes ...Pass) *Pipeline {
	p.units = append(p.units, unit{group: passes, name: name, maxTrips: maxTrips})
	return p
}

// Run executes the pipeline. On any pass error — including a recovered
// panic and a verify-each lint failure — the returned diagnostic names the
// offending pass.
func (p *Pipeline) Run(mod *wir.Module, ctx *Context) error {
	if ctx == nil {
		ctx = &Context{Opts: DefaultOptions()}
	}
	for _, u := range p.units {
		if u.group == nil {
			if _, err := runPass(u.pass, mod, ctx); err != nil {
				return err
			}
			continue
		}
		trips := 0
		for {
			trips++
			changed := false
			for _, ps := range u.group {
				c, err := runPass(ps, mod, ctx)
				if err != nil {
					return err
				}
				changed = changed || c
			}
			if !changed || trips >= u.maxTrips {
				break
			}
		}
		if ctx.Report != nil {
			ctx.Report.Trips[u.name] += trips
		}
	}
	return nil
}

// runPass executes one pass with instrumentation, panic recovery, and the
// optional between-pass SSA verification.
func runPass(ps Pass, mod *wir.Module, ctx *Context) (changed bool, err error) {
	var stat *PassStat
	var start time.Time
	if ctx.Report != nil {
		stat = ctx.Report.stat(ps.Name)
		if stat.Runs == 0 {
			stat.InstrsBefore = ModuleSize(mod)
		}
		start = time.Now()
	}
	func() {
		// Internal invariant panics inside a pass are allowed to stay
		// panics at their source; the manager converts them into a
		// diagnostic tagged with the pass name so the failure unwinds to
		// FunctionCompile instead of killing the process.
		defer func() {
			if r := recover(); r != nil {
				err = diag.Newf(diag.PassStage, "X900",
					"internal error: %v", r).WithPass(ps.Name)
			}
		}()
		changed, err = ps.Run(mod, ctx)
	}()
	if stat != nil {
		stat.Duration += time.Since(start)
		stat.Runs++
		if changed {
			stat.Changed++
		}
		stat.InstrsAfter = ModuleSize(mod)
	}
	if err != nil {
		return changed, err
	}
	if ctx.VerifyEach {
		if lintErr := mod.Lint(); lintErr != nil {
			return changed, diag.Newf(diag.PassStage, "X901",
				"SSA verification failed after pass %s: %v", ps.Name, lintErr).WithPass(ps.Name)
		}
	}
	return changed, nil
}

// perFunc lifts a per-function pass to a module pass.
func perFunc(fn func(*wir.Function) bool) func(*wir.Module, *Context) (bool, error) {
	return func(mod *wir.Module, _ *Context) (bool, error) {
		changed := false
		for _, f := range mod.Funcs {
			if fn(f) {
				changed = true
			}
		}
		return changed, nil
	}
}

// The standard passes. DefaultPipeline lists them directly; their names are
// what -time-passes, -verify-each and wolfc -explain print.
var (
	resolveIndirectPass = Pass{"resolve-indirect", func(mod *wir.Module, _ *Context) (bool, error) {
		ResolveIndirectCalls(mod)
		return false, nil
	}}
	inlinePass = Pass{"inline", func(mod *wir.Module, ctx *Context) (bool, error) {
		return Inline(mod, ctx.Opts.InlinePolicy), nil
	}}
	foldConstantsPass     = Pass{"fold-constants", perFunc(FoldConstants)}
	simplifyBranchesPass  = Pass{"simplify-branches", perFunc(SimplifyBranches)}
	removeUnreachablePass = Pass{"remove-unreachable", func(mod *wir.Module, _ *Context) (bool, error) {
		RemoveUnreachable(mod)
		// Reports unchanged by design: unreachable-block removal alone
		// must not keep the O1 fixpoint spinning (mirrors the original
		// hand-rolled loop, which ignored it too).
		return false, nil
	}}
	fuseBlocksPass = Pass{"fuse-blocks", func(mod *wir.Module, _ *Context) (bool, error) {
		return FuseBlocks(mod), nil
	}}
	csePass         = Pass{"cse", perFunc(CSE)}
	dcePass         = Pass{"dce", perFunc(DCE)}
	flattenCondPass = Pass{"flatten-cond", perFunc(func(f *wir.Function) bool {
		flattened := false
		for FlattenCond(f) {
			flattened = true
		}
		return flattened
	})}
	loopOptimizePass = Pass{"loop-optimize", func(mod *wir.Module, _ *Context) (bool, error) {
		return LoopOptimize(mod), nil
	}}
	insertCopiesPass = Pass{"insert-copies", func(mod *wir.Module, ctx *Context) (bool, error) {
		InsertCopies(mod, ctx.Opts)
		return true, nil
	}}
	insertAbortChecksPass = Pass{"insert-abort-checks", func(mod *wir.Module, _ *Context) (bool, error) {
		InsertAbortChecks(mod)
		return true, nil
	}}
)

// DefaultPipeline assembles the standard pipeline for the given options:
// function resolution, inlining, the O1 local-optimisation fixpoint, the O2 loop
// pipeline with its cleanup, then the mandatory lowering passes (copies,
// abort checks). Reference counts are the C backend's lowering
// (InsertRefCounts): only the C runtime frees a value when its count falls
// to zero.
//
// The pipeline depends only on the optimisation level, whether inlining is
// on and whether abort checks are inserted, so each combination is built
// once and shared: callers run or describe it and never Add to it.
func DefaultPipeline(opts Options) *Pipeline {
	level := min(max(opts.OptimizationLevel, 0), 2)
	return defaultPipelines[level][b2i(opts.InlinePolicy != "none")][b2i(opts.AbortHandling)]
}

var defaultPipelines = func() (t [3][2][2]*Pipeline) {
	for level := range t {
		for inline := range t[level] {
			for abort := range t[level][inline] {
				t[level][inline][abort] = buildPipeline(level, inline == 1, abort == 1)
			}
		}
	}
	return t
}()

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func buildPipeline(level int, inline, abort bool) *Pipeline {
	pl := (&Pipeline{}).Add(resolveIndirectPass)
	if inline {
		pl.Add(inlinePass)
	}
	if level > 0 {
		pl.AddFixpoint("local-opt", 3,
			foldConstantsPass, simplifyBranchesPass, removeUnreachablePass,
			fuseBlocksPass, csePass, dcePass)
	}
	if level > 1 {
		// Hoisting, strength reduction, and if-conversion leave dead
		// residue and single-edge preheader seams; the trailing fuse+DCE
		// cleans them up before codegen sees the module.
		pl.Add(flattenCondPass, loopOptimizePass, fuseBlocksPass, dcePass)
	}
	pl.Add(insertCopiesPass)
	if abort {
		pl.Add(insertAbortChecksPass)
	}
	return pl
}

// Describe renders the pipeline's structure: one line per unit, fixpoint
// groups shown with their member passes and trip bound (wolfc -explain).
func (p *Pipeline) Describe() string {
	var b strings.Builder
	for _, u := range p.units {
		if u.group == nil {
			fmt.Fprintf(&b, "  %s\n", u.pass.Name)
			continue
		}
		fmt.Fprintf(&b, "  fixpoint %q (max %d trips):\n", u.name, u.maxTrips)
		for _, ps := range u.group {
			fmt.Fprintf(&b, "    %s\n", ps.Name)
		}
	}
	return b.String()
}

// RunPipeline applies the standard pipeline under the given context. The
// final whole-module lint always runs (independent of VerifyEach), exactly
// as the pipeline always linted before handing the module to codegen.
func RunPipeline(mod *wir.Module, ctx *Context) error {
	if err := DefaultPipeline(ctx.Opts).Run(mod, ctx); err != nil {
		return err
	}
	if err := mod.Lint(); err != nil {
		return diag.Newf(diag.PassStage, "X902",
			"internal: pass pipeline broke SSA: %v", err)
	}
	return nil
}
