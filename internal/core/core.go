// Package core is the paper's primary contribution: the staged compiler
// pipeline MExpr → WIR → TWIR → code generation (paper §4), assembled from
// the macro system, binding analysis, SSA lowering, constraint-based type
// inference, the pass pipeline, and the backends. It provides
// FunctionCompile, the CompiledCodeFunction wrapper with expression
// boxing/unboxing and the soft interpreter fallback (F1/F2), abortable
// execution (F3), kernel integration (F9), and staged IR dumps (§A.6).
package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"wolfc/internal/binding"
	"wolfc/internal/codegen"
	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/infer"
	"wolfc/internal/kernel"
	"wolfc/internal/macro"
	"wolfc/internal/obs"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// Compiler is one compiler instance: the macro and type environments plus
// pass options. Users extend the environments (F6, §4.7) without touching
// compiler internals.
type Compiler struct {
	Kernel   *kernel.Kernel
	MacroEnv *macro.Env
	TypeEnv  *types.Env
	Options  passes.Options
	// CompileOpts feed conditioned macros (§4.7 TargetSystem etc.).
	CompileOpts map[string]expr.Expr
	// NaiveConstants disables constant-array interning in the backend
	// (the §6 PrimeQ ablation).
	NaiveConstants bool
	// FuseLevel controls backend superinstruction fusion: 0 = default
	// (full fusion), codegen.FuseOff disables it for differential runs.
	FuseLevel int
	// ProfileLevel > 0 makes the backend emit per-block execution counters
	// (ISSUE 4); the hot-block table is exposed through the compiled
	// function's metrics detail and codegen.CFunc.ProfileTable.
	ProfileLevel int
	// Stencil selects the baseline configuration of the pipeline (tier
	// F1.5): the same constraint solver, then abort checks instead of
	// function resolution and the pass pipeline, and the closure backend
	// with fusion off. Coverage is the machine-scalar fragment, and anything
	// outside it fails (with infer.ErrQuickUnsupported for a non-scalar
	// parameter, or the backend's scalar-only guard) so callers can fall
	// back to the full pipeline.
	Stencil bool
	// Registry is the function-registry namespace compiles resolve
	// cross-unit calls against (nil = the process-wide default). Engines
	// set it so concurrent sessions never bind each other's promoted
	// definitions; it also picks which of the kernel's compile-cache fronts
	// the compiler files into.
	Registry *fnreg.Registry
	// DisableImplicitSpan stops this compiler from reading the kernel's
	// active request span for trace correlation. The tiering workers set it:
	// a background compile runs concurrently with whatever request the
	// kernel is evaluating NOW, which is not the request that queued the
	// job — workers carry the correct span explicitly in CompileRequest.Span.
	DisableImplicitSpan bool
}

// NewCompiler builds a compiler hosted in k with the default environments
// and the default function registry.
func NewCompiler(k *kernel.Kernel) *Compiler {
	return NewCompilerWith(k, nil)
}

// NewCompilerWith builds a compiler hosted in k resolving registry calls
// against reg (nil = the process-wide default registry).
func NewCompilerWith(k *kernel.Kernel, reg *fnreg.Registry) *Compiler {
	return &Compiler{
		Kernel:   k,
		MacroEnv: macro.DefaultEnv(),
		TypeEnv:  types.Builtin(),
		Options:  passes.DefaultOptions(),
		Registry: reg,
	}
}

// reg returns the compiler's registry namespace, defaulting to the
// process-wide instance.
func (c *Compiler) reg() *fnreg.Registry {
	if c.Registry != nil {
		return c.Registry
	}
	return fnreg.Default()
}

// activeSpan reads the request span the hosting kernel is currently
// evaluating under (set by engine.EvalCtx on the evaluating goroutine),
// zero when absent or when implicit resolution is disabled.
func (c *Compiler) activeSpan() obs.SpanContext {
	if c.DisableImplicitSpan {
		return obs.SpanContext{}
	}
	return c.kernelSpan()
}

// kernelSpan is the request span of whatever the hosting kernel is
// evaluating right now, zero without a kernel. Invocation reads it directly:
// it happens on the evaluating goroutine, so the live span is the right one
// even for a function a background tier worker built (whose compiler
// resolves no implicit spans for its compiles).
func (c *Compiler) kernelSpan() obs.SpanContext {
	if c.Kernel == nil {
		return obs.SpanContext{}
	}
	sc, _ := c.Kernel.TraceSpan().(obs.SpanContext)
	return sc
}

// engineLabel is the engine id trace events from this compiler carry when
// no span supplies one ("" for the process-default namespace).
func (c *Compiler) engineLabel() string {
	if c.Registry != nil {
		return c.Registry.ID()
	}
	return ""
}

// kernelEngine adapts the kernel to the runtime's Engine interface.
type kernelEngine struct{ k *kernel.Kernel }

func (e kernelEngine) EvalExpr(x expr.Expr) (expr.Expr, error) { return e.k.EvalGuarded(x) }
func (e kernelEngine) Aborted() bool                           { return e.k.Aborted() }
func (e kernelEngine) RandReal() float64                       { return e.k.RandReal() }
func (e kernelEngine) RandInt(lo, hi int64) int64              { return e.k.RandInt(lo, hi) }

// Engine returns the runtime engine view of the hosting kernel (nil kernel
// means standalone mode: aborts and escapes disabled, §4.6).
func (c *Compiler) Engine() runtime.Engine {
	if c.Kernel == nil {
		return nil
	}
	return kernelEngine{k: c.Kernel}
}

// CompiledCodeFunction is the result of FunctionCompile: the compiled
// program plus everything needed for kernel integration and fallback.
type CompiledCodeFunction struct {
	Source     expr.Expr // the original Function expression
	Module     *wir.Module
	Program    *codegen.Program
	ParamTypes []types.Type
	RetType    types.Type
	compiler   *Compiler
	// stencil records that the baseline configuration built this function
	// (Compiler.Stencil at the time): the tiering ladder reads which rung an
	// installed function is on from here.
	stencil bool
	// Standalone disables engine-dependent features (export mode, F10).
	Standalone bool
	// Report holds the compile instrumentation when it was requested
	// (CompileRequest.Collect); nil otherwise.
	Report *CompileReport
	// Metrics is this function's observability block (internal/obs):
	// invocation latency, fallback and abort counts. Always non-nil for
	// functions built by FunctionCompile*; recording is gated by
	// obs.Enabled so the disabled invoke path pays one atomic load.
	Metrics *obs.FuncMetrics
	// RegDeps names the function-registry entries this compiled code calls
	// directly (cross-unit calls resolved through internal/fnreg). When any
	// of them is retired the cached compile is stale: the tiering engine
	// drops it from its kernel's front so a recompile re-resolves against the
	// live registry.
	RegDeps []string
}

// FunctionCompile compiles Function[{Typed[x, ty]...}, body] through the
// full pipeline (§4).
func (c *Compiler) FunctionCompile(fn expr.Expr) (*CompiledCodeFunction, error) {
	return c.FunctionCompileRequest(fn, CompileRequest{})
}

// CompileNamed compiles fn while rewriting self-references through the
// given symbol name into recursion (the paper's cfib: the function refers
// to the variable it is being assigned to).
func (c *Compiler) CompileNamed(name string, fn expr.Expr) (*CompiledCodeFunction, error) {
	return c.FunctionCompileRequest(fn, CompileRequest{SelfName: name})
}

// FunctionCompileRequest is FunctionCompile with per-invocation context:
// source spans for positioned diagnostics, between-pass SSA verification,
// and compile-report collection.
func (c *Compiler) FunctionCompileRequest(fn expr.Expr, req CompileRequest) (ccf *CompiledCodeFunction, err error) {
	var rep *CompileReport
	if req.Collect {
		rep = &CompileReport{}
	}
	if sc, ok := c.traceSpan(req.Span); ok {
		tStart, t0 := obs.TraceNow(), time.Now()
		defer func() {
			c.emitCompile(sc, obs.TraceEvent{Name: displayName(req.SelfName, fn), TNs: tStart,
				DurNs: time.Since(t0).Nanoseconds()}, err)
		}()
	}
	// Any diagnostic escaping the pipeline gets its position filled in from
	// the span table here, once, at the boundary every stage funnels
	// through.
	defer func() {
		if err != nil {
			err = diag.Resolve(err, req.Source)
		}
	}()
	mod, err := c.buildUntypedWIR(fn, req, rep)
	if err != nil {
		return nil, err
	}
	prog, err := c.compileModule(mod, req.VerifyEach, rep)
	if err != nil {
		return nil, err
	}
	ccf, err = c.wrap(prog, fn, req.SelfName, c.backend(), collectRegDeps(mod))
	if err != nil {
		return nil, err
	}
	ccf.Report = rep
	return ccf, nil
}

// compileModule is the back half both configurations share, from untyped
// WIR to code. Both type with the solver (the baseline one rejects non-scalar
// parameters first); Stencil then skips function resolution and the pass
// pipeline, and picks the backend in generate.
func (c *Compiler) compileModule(mod *wir.Module, verifyEach bool, rep *CompileReport) (*codegen.Program, error) {
	t, codegenStage := startTimer(rep), "codegen"
	typeWith := infer.InferCounted
	if c.Stencil {
		typeWith = infer.QuickCounted
	}
	solver, err := typeWith(mod, c.TypeEnv, c.reg())
	if err != nil {
		return nil, err
	}
	rep.stage("infer", t)
	if rep != nil {
		rep.Solver = &solver
	}
	t = startTimer(rep)
	if c.Stencil {
		// Of the pass pipeline only abort checks run: the scalar fragment
		// needs no copy insertion, and optimisation is the O2 tier's job
		// after re-promotion. No Lint either: the backend's scalar-only
		// guard rejects anything outside the fragment, and linting would
		// cost a double-digit share of the whole baseline compile.
		codegenStage = "stencil"
		if c.Options.AbortHandling {
			passes.InsertAbortChecks(mod)
		}
	} else {
		if err := c.ResolveFunctions(mod); err != nil {
			return nil, err
		}
		rep.stage("resolve", t)
		pctx := &passes.Context{Env: c.TypeEnv, Opts: c.Options, VerifyEach: verifyEach}
		if rep != nil {
			pctx.Report = passes.NewReport()
			rep.Passes = pctx.Report
		}
		t = startTimer(rep)
		if err := passes.RunPipeline(mod, pctx); err != nil {
			return nil, err
		}
		rep.stage("passes", t)
		t = startTimer(rep)
	}
	prog, err := c.generate(mod)
	if err != nil {
		return nil, err
	}
	rep.stage(codegenStage, t)
	return prog, nil
}

// compileGroup compiles mutually recursive definitions, fns[i] defining
// names[i], as one module: each is lowered on its own and adopted under its
// name, so the calls between them bind directly (§4.5), and the module takes
// the back half once. Each member's function is entered at its own function
// in the shared program. A member's RegDeps name its partners as well as the
// registry entries the module calls: its code cannot outlive theirs. The
// group emits one compile trace event, under span.
func (c *Compiler) compileGroup(names []string, fns []expr.Expr, span obs.SpanContext) (ccfs []*CompiledCodeFunction, err error) {
	if sc, ok := c.traceSpan(span); ok {
		tStart, t0 := obs.TraceNow(), time.Now()
		defer func() {
			c.emitCompile(sc, obs.TraceEvent{Name: "{" + strings.Join(names, ", ") + "}", TNs: tStart,
				DurNs: time.Since(t0).Nanoseconds()}, err)
		}()
	}
	mod := &wir.Module{}
	for i, fn := range fns {
		sub, err := c.BuildWIR(fn)
		if err != nil {
			return nil, err
		}
		mod.Adopt(sub, names[i])
	}
	prog, err := c.compileModule(mod, false, nil)
	if err != nil {
		return nil, err
	}
	deps := append(collectRegDeps(mod), names...)
	slices.Sort(deps)
	for i, name := range names {
		own := slices.Index(deps, name)
		member := *prog // the same program, entered at the member
		member.Main = prog.FuncByName(name)
		ccf, err := c.wrap(&member, fns[i], name, c.backend(), slices.Delete(slices.Clone(deps), own, own+1))
		if err != nil {
			return nil, err
		}
		ccfs = append(ccfs, ccf)
	}
	return ccfs, nil
}

// traceSpan is the span a compile's trace event goes under, the request's or
// else the kernel's active one, and false when no event is to be emitted.
func (c *Compiler) traceSpan(span obs.SpanContext) (obs.SpanContext, bool) {
	if !obs.TraceEnabled() {
		return span, false
	}
	if !span.Valid() {
		span = c.activeSpan()
	}
	return span, !span.Suppressed()
}

// emitCompile emits one compile trace event under sc; err is the compile's
// failure, nil when it succeeded.
func (c *Compiler) emitCompile(sc obs.SpanContext, ev obs.TraceEvent, err error) {
	ev.Type, ev.Engine = "compile", c.engineLabel()
	if err != nil {
		ev.Detail = err.Error()
	}
	sc.Annotate(&ev)
	obs.Emit(ev)
}

// generate runs the backend this compiler is configured for over a typed
// module. A Stencil compiler's modules went through no copy insertion, so
// its backend is the scalar-only one.
func (c *Compiler) generate(mod *wir.Module) (*codegen.Program, error) {
	if c.Stencil {
		return codegen.StencilCompile(mod)
	}
	return codegen.CompileWithOptions(mod, c.backendOptions())
}

// backendOptions is what this compiler hands the closure backend.
func (c *Compiler) backendOptions() codegen.CompileOptions {
	if c.Stencil {
		return codegen.CompileOptions{FuseLevel: codegen.FuseOff}
	}
	return codegen.CompileOptions{
		NaiveConstants: c.NaiveConstants,
		FuseLevel:      c.FuseLevel,
		ProfileLevel:   c.ProfileLevel,
	}
}

// backend labels the code generate produces in metrics and traces.
func (c *Compiler) backend() string {
	if c.Stencil {
		return "stencil"
	}
	return "closure"
}

// wrap binds generated code to this compiler's kernel as a
// CompiledCodeFunction entered at prog.Main that calls the registry entries
// regDeps names. Its metrics block is titled the way displayName titles
// trace events — the source is kept and printed when the name is first read
// — and labelled with the backend; a library loaded without its source (fn
// nil) gets no block.
func (c *Compiler) wrap(prog *codegen.Program, fn expr.Expr, selfName, label string, regDeps []string) (*CompiledCodeFunction, error) {
	if prog.Main == nil {
		return nil, fmt.Errorf("module has no entry function")
	}
	mod := prog.Module
	main := mod.FuncByName(prog.Main.Name)
	ccf := &CompiledCodeFunction{
		Source:   fn,
		Module:   mod,
		Program:  prog,
		RetType:  main.RetTy,
		compiler: c,
		stencil:  c.Stencil,
		RegDeps:  regDeps,
	}
	for _, p := range main.Params {
		if !p.Capture {
			ccf.ParamTypes = append(ccf.ParamTypes, p.Ty)
		}
	}
	if fn != nil {
		if selfName != "" {
			ccf.Metrics = obs.RegisterFuncScoped(selfName, label, c.reg().ID())
		} else {
			ccf.Metrics = obs.RegisterFuncSource(fn, label, c.reg().ID())
		}
		if c.ProfileLevel > 0 {
			ccf.Metrics.SetDetail(ccf.profileDetail)
		}
	}
	return ccf, nil
}

// collectRegDeps lists the registry entry names the module's compiled code
// calls through the function registry, deduplicated and sorted.
func collectRegDeps(mod *wir.Module) []string {
	var out []string
	eachRegCall(mod, func(e *fnreg.Entry) { out = append(out, e.Name()) })
	slices.Sort(out)
	return slices.Compact(out)
}

// retiredCallees names the registry entries the code of ccfs calls that have
// been retired since it was compiled (nil when none): installing it would
// publish calls into dead code. A group's members share one module, walked
// once.
func retiredCallees(ccfs []*CompiledCodeFunction) (names []string) {
	for i, ccf := range ccfs {
		if i == 0 || ccf.Module != ccfs[i-1].Module {
			eachRegCall(ccf.Module, func(e *fnreg.Entry) {
				if e.Retired() {
					names = append(names, e.Name())
				}
			})
		}
	}
	return names
}

// eachRegCall visits the entry of every call mod makes through the function
// registry.
func eachRegCall(mod *wir.Module, visit func(*fnreg.Entry)) {
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if p, ok := in.Prop("regcall"); ok {
					if ent, ok := p.(*fnreg.Entry); ok {
						visit(ent)
					}
				}
			}
		}
	}
}

// signature is the registry signature of a compiled function.
func (ccf *CompiledCodeFunction) signature() *types.Fn {
	return &types.Fn{Params: ccf.ParamTypes, Ret: ccf.RetType}
}

// displayName labels a compiled function for metrics and traces: the
// assignment name when the compile had one, otherwise the source form.
func displayName(selfName string, fn expr.Expr) string {
	if selfName != "" {
		return selfName
	}
	return expr.InputForm(fn)
}

// profileDetail renders the hot-block tables of every profiled function in
// the program (ProfileLevel > 0) for /debug/funcs and wolfc -profile.
func (ccf *CompiledCodeFunction) profileDetail() string {
	var sb strings.Builder
	for _, f := range ccf.Program.Funcs {
		if f.Profiled() {
			sb.WriteString(f.ProfileTable())
		}
	}
	return sb.String()
}

// BuildTWIR runs the front half of the pipeline: macro expansion, binding
// analysis, lowering, and type inference (§A.6 CompileToIR).
func (c *Compiler) BuildTWIR(selfName string, fn expr.Expr) (*wir.Module, error) {
	mod, err := c.buildUntypedWIR(fn, CompileRequest{SelfName: selfName}, nil)
	if err != nil {
		return nil, err
	}
	if err := infer.InferWith(mod, c.TypeEnv, c.reg()); err != nil {
		return nil, err
	}
	return mod, nil
}

// buildUntypedWIR is the front end both configurations share: macro
// expansion (skipped when the request brings it), the SelfName recursion
// rewrite, binding, and SSA lowering.
func (c *Compiler) buildUntypedWIR(fn expr.Expr, req CompileRequest, rep *CompileReport) (*wir.Module, error) {
	t := startTimer(rep)
	expanded, src := req.expanded, req.Source
	if expanded == nil {
		var err error
		if expanded, err = c.expand(fn, src); err != nil {
			return nil, fmt.Errorf("macro expansion: %w", err)
		}
	}
	rep.stage("macro", t)
	if req.SelfName != "" {
		self := expr.Sym(req.SelfName)
		expanded = expr.Replace(expanded, func(e expr.Expr) expr.Expr {
			if e == self {
				return expr.Sym("Main")
			}
			return e
		})
	}
	t = startTimer(rep)
	res, err := binding.AnalyzeSource(expanded, src)
	if err != nil {
		return nil, err
	}
	rep.stage("binding", t)
	t = startTimer(rep)
	mod, err := wir.Lower(res, c.TypeEnv)
	if err != nil {
		return nil, err
	}
	rep.stage("lower", t)
	return mod, nil
}

// BuildWIR runs the pipeline up to untyped WIR (§A.6 CompileToIR with
// optimisations off shows the untyped form).
func (c *Compiler) BuildWIR(fn expr.Expr) (*wir.Module, error) {
	return c.buildUntypedWIR(fn, CompileRequest{}, nil)
}

// ExpandAST runs macro expansion only (§A.6 CompileToAST).
func (c *Compiler) ExpandAST(fn expr.Expr) (expr.Expr, error) {
	return c.expand(fn, nil)
}

// expand is the macro stage: the environment's rules to a fixed point, then
// slot functions, carrying source spans into src when there is one.
func (c *Compiler) expand(fn expr.Expr, src *diag.Source) (expr.Expr, error) {
	expanded, err := c.MacroEnv.ExpandSource(fn, c.CompileOpts, src)
	if err != nil {
		return nil, err
	}
	return macro.ExpandSlotsSource(expanded, src), nil
}

// ResolveFunctions materialises Wolfram-source implementations chosen by
// inference (§4.5 Function Resolution): each call whose overload carries a
// Wolfram Function implementation is compiled at its instantiated type,
// inserted into the program module under its mangled name, and the call is
// rewritten to it.
func (c *Compiler) ResolveFunctions(mod *wir.Module) error {
	compiledImpls := map[string]*wir.Function{}
	for fi := 0; fi < len(mod.Funcs); fi++ { // resolution may append functions
		f := mod.Funcs[fi]
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != wir.OpCall {
					continue
				}
				dv, ok := in.Prop("overload")
				if !ok {
					continue
				}
				def := dv.(*types.FuncDef)
				if def.Impl == nil {
					if def.Native != "" {
						in.Native = def.Native
					}
					continue
				}
				ctv, ok := in.Prop("calltype")
				if !ok {
					return fmt.Errorf("resolution: call to %s lacks an instantiated type", def.Name)
				}
				callFn, ok := ctv.(*types.Fn)
				if !ok || !types.IsGround(callFn) {
					return fmt.Errorf("resolution: call to %s is not ground: %v", def.Name, ctv)
				}
				mangled := types.Mangle(def.Name, callFn)
				target, done := compiledImpls[mangled]
				if !done {
					var err error
					target, err = c.compileImplInto(mod, def, callFn, mangled)
					if err != nil {
						return fmt.Errorf("resolving %s: %w", def.Name, err)
					}
					compiledImpls[mangled] = target
				}
				in.Callee = mangled
				in.ResolvedFn = target
				if def.Inline {
					target.SetProp("inline", true)
				}
			}
		}
	}
	return nil
}

// compileImplInto compiles a Wolfram-source implementation at a concrete
// instantiation and splices its functions into mod.
func (c *Compiler) compileImplInto(mod *wir.Module, def *types.FuncDef,
	callFn *types.Fn, mangled string) (*wir.Function, error) {
	implFn, ok := expr.IsNormalN(def.Impl, expr.SymFunction, 2)
	if !ok {
		return nil, fmt.Errorf("implementation of %s is not Function[{params}, body]", def.Name)
	}
	// Annotate the implementation's parameters with the instantiated types.
	params, ok := expr.IsNormal(implFn.Arg(1), expr.SymList)
	if !ok || params.Len() != len(callFn.Params) {
		return nil, fmt.Errorf("implementation arity mismatch for %s", def.Name)
	}
	typed := make([]expr.Expr, params.Len())
	for i := 1; i <= params.Len(); i++ {
		name, ok := params.Arg(i).(*expr.Symbol)
		if !ok {
			return nil, fmt.Errorf("implementation parameter %d of %s is not a symbol", i, def.Name)
		}
		typed[i-1] = expr.New(expr.SymTyped, name, types.Spec(callFn.Params[i-1]))
	}
	annotated := expr.New(expr.SymFunction, expr.List(typed...), implFn.Arg(2))
	sub, err := c.BuildTWIR("", annotated)
	if err != nil {
		return nil, err
	}
	// The sub-module's own calls (including recursive self-calls — the
	// implementation may mention its declared name) are resolved by the
	// caller's loop, which iterates over appended functions; resolving here
	// would recurse forever on self-referential implementations.
	target := mod.Adopt(sub, mangled)
	if !types.Equal(target.RetTy, callFn.Ret) {
		return nil, fmt.Errorf("implementation of %s returns %s, declaration says %s",
			def.Name, target.RetTy, callFn.Ret)
	}
	return target, nil
}

// outcome classifies one invocation of compiled code from boxed arguments.
type outcome int

const (
	outServed      outcome = iota // the compiled body returned; out is its boxed result
	outAborted                    // an abort unwound the body; out is $Aborted (F3)
	outGuardMiss                  // an argument is outside the compiled signature, or the dispatch tree matched no rule
	outSoftFailure                // the body threw a runtime exception: overflow, retired callee, kernel escape (F2)
)

// invoke is the one boxed entry into compiled code, the auxiliary wrapper of
// §4.5: unbox the arguments, run, record metrics and the trace event, box the
// result. len(args) must equal len(ccf.ParamTypes). It never re-evaluates and
// never prints; what an unserved call means is the caller's business — Apply
// re-evaluates through the interpreter with the paper's warning, the tiering
// dispatch hook hands the call back to the kernel's own rules. reason says
// why the call was not served.
func (ccf *CompiledCodeFunction) invoke(args []expr.Expr) (out expr.Expr, oc outcome, reason string) {
	raw := make([]any, len(args))
	for i, a := range args {
		v, ok := runtime.Unbox(a, ccf.ParamTypes[i])
		if !ok {
			// E.g. a bignum into a machine-integer slot.
			ccf.Metrics.RecordFallback()
			return nil, outGuardMiss, fmt.Sprintf("argument %d (%s) does not match type %s",
				i+1, expr.InputForm(a), ccf.ParamTypes[i])
		}
		raw[i] = v
	}
	defer func() {
		if r := recover(); r != nil {
			exc := runtime.Caught(r)
			if exc == nil {
				panic(r)
			}
			switch exc.Kind {
			case runtime.ExcAbort:
				// Cold path: abort already paid for a panic unwind, so the
				// counter is unconditional. The kernel's abort flag is still
				// set; the evaluator loop unwinds exactly as an interpreted
				// abort does.
				ccf.Metrics.RecordAbort()
				out, oc, reason = expr.SymAborted, outAborted, ""
				return
			case runtime.ExcNoMatch:
				// The compiled dispatch tree proved no DownValue rule matches:
				// a property of the arguments, not a failure of the code.
				oc = outGuardMiss
			default:
				oc = outSoftFailure
			}
			ccf.Metrics.RecordFallback()
			out, reason = nil, exc.Msg
		}
	}()
	// Invocation metrics: one atomic load when disabled; clock reads and
	// recording only on the enabled path.
	rec := obs.Enabled()
	var t0 time.Time
	var tStart int64
	if rec {
		if obs.TraceEnabled() {
			tStart = obs.TraceNow()
		}
		t0 = time.Now()
	}
	rt := ccf.acquireRT()
	defer rt.Release()
	res := ccf.Program.Main.CallValues(rt, raw...)
	if rec {
		d := time.Since(t0)
		ccf.Metrics.RecordInvoke(d)
		if obs.TraceEnabled() {
			if sc := ccf.compiler.kernelSpan(); !sc.Suppressed() {
				ev := obs.TraceEvent{Type: "invoke", Name: ccf.Metrics.Name(),
					TNs: tStart, DurNs: d.Nanoseconds(), Backend: ccf.Metrics.Backend(),
					Engine: ccf.compiler.engineLabel()}
				sc.Annotate(&ev)
				obs.Emit(ev)
			}
		}
	}
	if ccf.RetType == types.TVoid {
		return expr.SymNull, outServed, ""
	}
	return runtime.Box(res, ccf.RetType), outServed, ""
}

// acquireRT takes the runtime context for one invocation from codegen's pool:
// the hosting engine (none in standalone mode) and a frame stack. The caller
// defers its Release.
func (ccf *CompiledCodeFunction) acquireRT() *codegen.RT {
	var eng runtime.Engine
	if !ccf.Standalone {
		eng = ccf.compiler.Engine()
	}
	return codegen.AcquireRT(eng)
}

// Apply runs the compiled function on kernel expressions. Arguments outside
// the compiled signature and runtime numeric exceptions print a warning and
// re-evaluate through the interpreter (the soft failure mode F2); aborts
// surface as $Aborted (F3).
func (ccf *CompiledCodeFunction) Apply(args []expr.Expr) (expr.Expr, error) {
	if len(args) != len(ccf.ParamTypes) {
		return nil, fmt.Errorf("CompiledCodeFunction: expected %d arguments, got %d",
			len(ccf.ParamTypes), len(args))
	}
	out, oc, reason := ccf.invoke(args)
	if oc == outGuardMiss || oc == outSoftFailure {
		return ccf.fallback(args, reason)
	}
	return out, nil
}

// CallRaw invokes the compiled code with unboxed Go values (used by the
// benchmark harness to measure pure compiled-code time). The disabled
// observability cost is one atomic load and a predictable branch.
func (ccf *CompiledCodeFunction) CallRaw(args ...any) any {
	rt := ccf.acquireRT()
	defer rt.Release()
	if obs.Enabled() {
		t0 := time.Now()
		res := ccf.Program.Main.CallValues(rt, args...)
		ccf.Metrics.RecordInvoke(time.Since(t0))
		return res
	}
	return ccf.Program.Main.CallValues(rt, args...)
}

// fallback re-evaluates the source through the interpreter (F2), printing
// the paper's warning.
func (ccf *CompiledCodeFunction) fallback(args []expr.Expr, reason string) (expr.Expr, error) {
	if obs.TraceEnabled() {
		if sc := ccf.compiler.kernelSpan(); !sc.Suppressed() {
			ev := obs.TraceEvent{Type: "fallback", Name: ccf.Metrics.Name(),
				TNs: obs.TraceNow(), Backend: ccf.Metrics.Backend(), Detail: reason,
				Engine: ccf.compiler.engineLabel()}
			sc.Annotate(&ev)
			obs.Emit(ev)
		}
	}
	k := ccf.compiler.Kernel
	if k == nil || ccf.Standalone {
		return nil, fmt.Errorf("compiled code runtime error (%s) and no interpreter available (standalone mode)", reason)
	}
	fmt.Fprintf(k.Out, "CompiledCodeFunction::cfse: A compiled code runtime error occurred; reverting to uncompiled evaluation: %s\n", reason)
	call := expr.New(ccf.Source, args...)
	return k.EvalGuarded(call)
}

// FunctionValue returns the compiled function as a first-class function
// value suitable for passing into other compiled code's function-typed
// parameters (F6: the QSort comparator).
func (ccf *CompiledCodeFunction) FunctionValue() any {
	return &codegen.FuncVal{Fn: ccf.Program.Main}
}
