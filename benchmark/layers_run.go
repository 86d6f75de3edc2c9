package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"sync"
	"time"

	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/engine"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
)

// stencilPrograms are the Figure 2 programs the stencil tier accepts
// today (its quick inference rejects loops and non-scalar parameters, so:
// the recursive row only). Their stencil rows are fixed metric names, so a
// program leaving the set fails the run instead of silently dropping a
// metric.
var stencilPrograms = []string{"fib"}

func isStencilProgram(name string) bool {
	for _, n := range stencilPrograms {
		if n == name {
			return true
		}
	}
	return false
}

// generatedCode times each program's compiled code (default options),
// its Go reference and, where the stencil tier accepts it, its stencil
// code, all on the same input in the same round; the scalar programs also
// without abort polls and without fusion (§6's ablations).
func generatedCode(res *layerResult, seed int64, d time.Duration, tr *tracer) error {
	want, err := expectedPrograms()
	if err != nil {
		return err
	}
	type variant struct {
		metric string
		b      bound
	}
	type row struct {
		p        *program
		want     string
		variants []variant
	}
	mk := func(tune func(*core.Compiler)) *core.Compiler {
		c := core.NewCompiler(newKernel())
		tune(c)
		return c
	}
	def := mk(func(*core.Compiler) {})
	noAbort := mk(func(c *core.Compiler) { c.Options.AbortHandling = false })
	unfused := mk(func(c *core.Compiler) { c.FuseLevel = codegen.FuseOff })
	stencil := mk(func(c *core.Compiler) { c.Stencil = true })
	rng := rand.New(rand.NewSource(seed))
	var rows []row
	var interpFib bound
	for _, p := range programs() {
		v := rng.Intn(p.variants)
		if p.name == "fib" {
			if interpFib, err = p.bind(def, nil, 0, 18); err != nil {
				return err
			}
		}
		r := row{p: p, want: want[expectedKey(p, v, false)]}
		add := func(metric string, c *core.Compiler) error {
			ccf, err := compileProgram(c, p)
			if err != nil {
				return fmt.Errorf("%s (%s): %w", p.name, metric, err)
			}
			b, err := p.bind(c, ccf, v, p.size)
			if err != nil {
				return err
			}
			r.variants = append(r.variants, variant{metric, b})
			return nil
		}
		if err := add("program."+p.name+".compiled", def); err != nil {
			return err
		}
		if p.scalar {
			if err := add("noabort/"+p.name, noAbort); err != nil {
				return err
			}
			if err := add("unfused/"+p.name, unfused); err != nil {
				return err
			}
		}
		if isStencilProgram(p.name) {
			if err := add("program."+p.name+".stencil", stencil); err != nil {
				return err
			}
		}
		rows = append(rows, r)
	}
	s := newSampler(tr, d)
	var tensorMallocs []float64
	for round := 0; round == 0 || s.more(); round++ {
		for _, r := range rows {
			s.more()
			for _, v := range r.variants {
				if v.b.before != nil {
					v.b.before()
				}
				var out any
				var m0 goruntime.MemStats
				if round == 0 && !r.p.scalar {
					goruntime.ReadMemStats(&m0)
				}
				s.time(v.metric, -1, int64(round), func(int) { out = v.b.call() })
				if round == 0 && !r.p.scalar {
					var m1 goruntime.MemStats
					goruntime.ReadMemStats(&m1)
					tensorMallocs = append(tensorMallocs, float64(m1.Mallocs-m0.Mallocs))
				}
				s.check(checksum(out) == r.want)
			}
			b := r.variants[0].b
			if b.before != nil {
				b.before()
			}
			var out any
			s.time("program."+r.p.name+".ref", -1, int64(round), func(int) { out = b.ref() })
			s.check(checksum(out) == r.want)
		}
		// The interpreter on the recursive row, at a size it can afford.
		var out expr.Expr
		var err error
		k := newKernel()
		s.time("kernel.interp_fib", -1, int64(round), func(int) { out, err = interpFib.interp(k) })
		s.check(err == nil && checksum(out) == "2584")
	}
	m := res.metrics
	var noabort, unfusedNames []string
	for _, r := range rows {
		m["program."+r.p.name+".compiled_us"] = s.us("program." + r.p.name + ".compiled")
		m["program."+r.p.name+".ref_us"] = s.us("program." + r.p.name + ".ref")
		if isStencilProgram(r.p.name) {
			m["program."+r.p.name+".stencil_us"] = s.us("program." + r.p.name + ".stencil")
		}
		if r.p.scalar {
			noabort = append(noabort, "noabort/"+r.p.name)
			unfusedNames = append(unfusedNames, "unfused/"+r.p.name)
		}
	}
	m["codegen.noabort_geomean_us"] = s.geomeanUs(noabort)
	m["codegen.unfused_geomean_us"] = s.geomeanUs(unfusedNames)
	m["runtime.mallocs_per_op"] = geomean(tensorMallocs)
	m["kernel.interp_fib_us"] = s.us("kernel.interp_fib")
	res.merge(s)
	return nil
}

// applyBoundary times the boxing wrapper around a trivial body (square):
// Apply against CallRaw, and the conversions on their own.
func applyBoundary(res *layerResult, d time.Duration, tr *tracer) error {
	c := core.NewCompiler(newKernel())
	ccf, err := c.FunctionCompile(parsed("square"))
	if err != nil {
		return err
	}
	const listLen = 200_000
	ints := make([]int64, listLen)
	for i := range ints {
		ints[i] = int64(i % 1000)
	}
	list := intsExpr(ints)
	tensor := intTensor(ints, listLen)
	listTy := types.TensorOf(types.TInt64, 1)
	arg := expr.FromInt64(41)
	args := []expr.Expr{arg}
	const batch = 256 // a single scalar unbox is below the clock's resolution
	s := newSampler(tr, d)
	for round := 0; round == 0 || s.more(); round++ {
		var out expr.Expr
		var err error
		s.time("core.apply", -1, int64(round), func(int) { out, err = ccf.Apply(args) })
		s.check(err == nil && expr.InputForm(out) == "1682")
		var raw any
		s.time("codegen.callraw", -1, int64(round), func(int) { raw = ccf.CallRaw(int64(41)) })
		s.check(raw == int64(1682))
		ok := true
		ns := s.tr.in("runtime.unbox_scalar", -1, int64(round), func(int) {
			for i := 0; i < batch; i++ {
				_, ok = runtime.Unbox(arg, types.TInt64)
			}
		})
		s.add("runtime.unbox_scalar", float64(ns)/batch)
		s.check(ok)
		if round%16 == 0 { // the 200k-element conversions take milliseconds
			var v any
			s.time("runtime.unbox_tensor", -1, int64(round), func(int) { v, ok = runtime.Unbox(list, listTy) })
			s.check(ok && v.(*runtime.Tensor).Len() == listLen)
			var boxed expr.Expr
			s.time("runtime.box_tensor", -1, int64(round), func(int) { boxed = runtime.Box(tensor, listTy) })
			s.check(expr.Length(boxed) == listLen)
		}
	}
	m := res.metrics
	m["core.apply_us"] = s.us("core.apply")
	m["codegen.callraw_us"] = s.us("codegen.callraw")
	m["runtime.unbox_scalar_ns"] = s.us("runtime.unbox_scalar") * 1e3
	m["runtime.unbox_tensor_us"] = s.us("runtime.unbox_tensor")
	m["runtime.box_tensor_us"] = s.us("runtime.box_tensor")
	res.merge(s)
	return nil
}

// newBenchEngine builds a bare engine configured like a served session's.
func newBenchEngine() *engine.Engine {
	return engine.New(engine.Options{Tiering: true, Tier: core.TierPolicy{Threshold: 50, Workers: 1}})
}

// serveLadder replays serve_hot's query stream at five depths. Every rung
// runs with the same number of concurrent callers as the workload, so the
// top rung sees the load serve_hot sees.
func serveLadder(res *layerResult, seed int64, d time.Duration, tr *tracer) error {
	wl, err := newServeHot(seed)
	if err != nil {
		return err
	}
	w := wl.(*serveHot)
	defer w.close()
	n := w.clients()
	pools, err := queryPools(allKernels())
	if err != nil {
		return err
	}
	// One bare engine per caller, defined and warmed like its session.
	engines := make([]*engine.Engine, n)
	for c := range engines {
		e := newBenchEngine()
		defer e.Close()
		engines[c] = e
		for _, def := range sessionDefines(allKernels()) {
			if _, err := e.Eval(def, 0); err != nil {
				return err
			}
		}
		for pass := 0; pass < 40; pass++ {
			for _, pool := range pools {
				for _, q := range pool {
					if r, err := e.Eval(q.input, 0); err != nil || expr.InputForm(r.Value) != q.want {
						return fmt.Errorf("bare engine: %s gave %v, %v", q.input, r.Value, err)
					}
				}
			}
			e.WaitIdle()
		}
	}
	handler := w.srv.Handler()
	before, err := w.cl[0].metricsCounters()
	if err != nil {
		return err
	}
	s := newSampler(tr, d)
	var mu sync.Mutex // guards s across the callers of one rung
	record := func(name string, ns int64, ok bool) {
		mu.Lock()
		s.add(name, float64(ns))
		s.check(ok)
		mu.Unlock()
	}
	const chunk = 128
	rungs := []struct {
		name string
		run  func(c int, q query, op int64) (int64, bool)
	}{
		{"serve.http", func(c int, q query, op int64) (int64, bool) {
			var got string
			var err error
			ns := tr.in("serve.http."+classNames[q.class], -1, op, func(int) { got, err = w.cl[c].eval(w.session[c], q.body) })
			return ns, err == nil && got == q.want
		}},
		{"serve.handler", func(c int, q query, op int64) (int64, bool) {
			req := httptest.NewRequest("POST", "/v1/sessions/"+w.session[c]+"/eval", bytes.NewReader(q.body))
			rec := httptest.NewRecorder()
			ns := tr.in("serve.handler."+classNames[q.class], -1, op, func(int) { handler.ServeHTTP(rec, req) })
			var r struct {
				Value string `json:"value"`
			}
			return ns, rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &r) == nil && r.Value == q.want
		}},
		{"engine.eval", func(c int, q query, op int64) (int64, bool) {
			var r engine.Result
			var err error
			ns := tr.in("engine.eval."+classNames[q.class], -1, op, func(int) { r, err = engines[c].Eval(q.input, 20*time.Second) })
			return ns, err == nil && expr.InputForm(r.Value) == q.want
		}},
		{"parser.parse_query", func(c int, q query, op int64) (int64, bool) {
			var err error
			ns := tr.in("parser.parse_query."+classNames[q.class], -1, op, func(int) { _, err = parser.ParseAll(q.input) })
			return ns, err == nil
		}},
		{"kernel.run", func(c int, q query, op int64) (int64, bool) {
			e := parser.MustParse(q.input)
			k := engines[c].Kernel
			k.ClearAbort()
			var out expr.Expr
			var err error
			ns := tr.in("kernel.run."+classNames[q.class], -1, op, func(int) { out, err = k.RunArmed(e) })
			if err != nil {
				return ns, false
			}
			pns := timeIt(func() { expr.InputForm(out) })
			mu.Lock()
			s.add("expr.print", float64(pns))
			mu.Unlock()
			return ns, expr.InputForm(out) == q.want
		}},
	}
	runRung := func(name string, run func(c int, q query, op int64) (int64, bool), from int) {
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := from; i < from+chunk; i++ {
					q := w.stream[c][i%streamLen]
					ns, ok := run(c, q, int64(c)<<32|int64(i))
					record(name+"."+classNames[q.class], ns, ok)
				}
			}(c)
		}
		wg.Wait()
	}
	for from := 0; from == 0 || s.more(); from += chunk {
		for _, r := range rungs {
			s.more()
			runRung(r.name, r.run, from)
		}
		// The top rung again with the system's own request tracing armed
		// but sampling nothing: what a production deployment pays for the
		// requests that lose the sampling draw.
		obs.EnableTraceCapture(64)
		prevRate := obs.SetTraceSampling(0)
		runRung("armed", rungs[0].run, from)
		obs.DisableTraceCapture()
		obs.SetTraceSampling(prevRate)
	}
	after, err := w.cl[0].metricsCounters()
	if err != nil {
		return err
	}
	m := res.metrics
	var armed, plain []string
	for _, class := range classNames {
		for _, r := range rungs {
			m[r.name+"_us."+class] = s.us(r.name + "." + class)
		}
		armed = append(armed, "armed."+class)
		plain = append(plain, "serve.http."+class)
	}
	m["expr.print_us"] = s.us("expr.print")
	m["obs.armed_overhead_ratio"] = s.geomeanUs(armed) / s.geomeanUs(plain)
	delta := func(k string) float64 { return after[k] - before[k] }
	m["serve.rejected"] = delta("wolfc_serve_rejected_busy_total") + delta("wolfc_serve_rejected_sessions_total")
	m["serve.errors"] = delta("wolfc_serve_eval_errors_total")
	res.merge(s)
	return nil
}

// tenantLadder takes tenant_coldstart apart: traced sessions over HTTP
// give the create and destroy requests, and the same plans replayed on a
// bare engine give what HTTP hides: engine construction and teardown, the
// time from a definition to each tier, and the tiering counters.
func tenantLadder(res *layerResult, seed int64, d time.Duration, tr *tracer) error {
	wl, err := newTenantColdstart(seed)
	if err != nil {
		return err
	}
	w := wl.(*tenantColdstart)
	defer w.close()
	s := newSampler(tr, d/2)
	spanTr := tr
	if spanTr == nil {
		spanTr = newTracer() // the phase times are read off the spans
	}
	first := len(spanTr.spans)
	for i := 0; i == 0 || s.more(); i++ {
		_, err := w.session(0, w.plans[0][i%tenantPlans], spanTr, int64(i))
		s.check(err == nil)
	}
	dur, self := spanTr.byName(first)
	for _, name := range []string{"serve.session_create", "serve.session_destroy"} {
		s.ns[name] = dur[name]
	}
	// What a session spends outside its requests: this client's own loop.
	s.ns["tenant.client"] = self["tenant.session"]
	m := res.metrics
	m["serve.session_create_us"] = s.us("serve.session_create")
	m["serve.session_destroy_us"] = s.us("serve.session_destroy")
	m["tenant.client_self_us"] = s.us("tenant.client")
	res.merge(s)

	s = newSampler(tr, d/2)
	gfib := expr.Sym("gfib")
	var stats core.TieringStats
	for i := 0; i == 0 || s.more(); i++ {
		plan := w.plans[0][i%tenantPlans]
		var e *engine.Engine
		s.time("engine.new", -1, int64(i), func(int) { e = newBenchEngine() })
		ok := true
		var defined time.Time
		for _, def := range sessionDefines(nil) {
			s.more()
			s.time("kernel.define", -1, int64(i), func(int) {
				if _, err := e.Eval(def, 0); err != nil {
					ok = false
				}
			})
			if defined.IsZero() {
				defined = time.Now() // gfib is defined first
			}
		}
		var toStencil, toO2 time.Duration
		tier := func() {
			if toStencil == 0 && e.Tiering.Compiled(gfib) {
				toStencil = time.Since(defined)
			}
			if toO2 == 0 && e.Tiering.Compiled(gfib) && !e.Tiering.OnStencilTier(gfib) {
				toO2 = time.Since(defined)
			}
		}
		for _, q := range plan.calls {
			if q.class != classTiered {
				continue // the kernels were not bound on this engine
			}
			r, err := e.Eval(q.input, 0)
			ok = ok && err == nil && expr.InputForm(r.Value) == q.want
			tier()
		}
		e.WaitIdle()
		tier()
		// Whether the O2 hop happens within one plan depends on how many of
		// its 60 calls the background stencil compile let through first;
		// a replay that never got there has no time to report, and that
		// is not a wrong answer.
		if toStencil > 0 {
			s.add("core.tier.to_stencil", float64(toStencil))
		}
		if toO2 > 0 {
			s.add("core.tier.to_o2", float64(toO2))
		}
		if i == 0 {
			stats = e.Stats()
		}
		s.time("engine.close", -1, int64(i), func(int) { e.Close() })
		s.check(ok)

		reg := fnreg.NewRegistry("benchmark")
		sig := &types.Fn{Params: []types.Type{types.TInt64}, Ret: types.TInt64}
		s.time("fnreg.cycle", -1, int64(i), func(int) {
			ent, err := reg.Reserve("f", sig, nil)
			if err != nil {
				ok = false
				return
			}
			reg.Install(ent, sig, nil)
			reg.RetireEntry(ent)
		})
		reg.Release()
	}
	m["engine.new_us"] = s.us("engine.new")
	m["engine.close_us"] = s.us("engine.close")
	m["kernel.define_us"] = s.us("kernel.define")
	m["fnreg.cycle_us"] = s.us("fnreg.cycle")
	m["core.tier.to_stencil_ms"] = s.us("core.tier.to_stencil") / 1e3
	m["core.tier.to_o2_ms"] = s.us("core.tier.to_o2") / 1e3
	m["core.tier.promotions"] = float64(stats.Promotions)
	m["core.tier.upgrades"] = float64(stats.Upgrades)
	m["core.tier.guard_misses"] = float64(stats.GuardMisses)
	m["core.tier.fallbacks"] = float64(stats.SoftFallbacks)
	res.merge(s)
	return nil
}
