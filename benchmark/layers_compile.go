package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"wolfc/internal/artifact"
	"wolfc/internal/binding"
	"wolfc/internal/codegen"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/infer"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
	"wolfc/internal/patcomp"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// The stages of one uncached O2 compile, as core.FunctionCompileRequest
// runs them; each is a public function called here in the same order.
var compileStages = []string{
	"macro.expand", "binding.analyze", "wir.lower", "infer.solve",
	"core.resolve", "passes.pipeline", "codegen.closure",
}

// selfRecursion is core's SelfName rewrite: references to the symbol the
// function is being assigned to become calls of Main.
func selfRecursion(e expr.Expr, selfName string) expr.Expr {
	if selfName == "" {
		return e
	}
	self := expr.Sym(selfName)
	return expr.Replace(e, func(x expr.Expr) expr.Expr {
		if x == self {
			return expr.Sym("Main")
		}
		return x
	})
}

// frontEnd runs macro expansion, binding analysis and lowering under
// spans, the half of the pipeline both compile tiers share.
func frontEnd(s *sampler, c *core.Compiler, src compileSource, fn expr.Expr, root int, op int64) (*wir.Module, error) {
	var expanded expr.Expr
	var res *binding.Result
	var mod *wir.Module
	var err error
	s.time("macro.expand/"+src.name, root, op, func(int) {
		expanded, err = c.MacroEnv.ExpandSource(fn, c.CompileOpts, nil)
		if err == nil {
			expanded = macro.ExpandSlotsSource(expanded, nil)
		}
	})
	if err != nil {
		return nil, err
	}
	expanded = selfRecursion(expanded, src.selfName)
	s.time("binding.analyze/"+src.name, root, op, func(int) { res, err = binding.AnalyzeSource(expanded, nil) })
	if err != nil {
		return nil, err
	}
	s.time("wir.lower/"+src.name, root, op, func(int) { mod, err = wir.Lower(res, c.TypeEnv) })
	return mod, err
}

func perSource(prefix string, corpus []compileSource) []string {
	names := make([]string, len(corpus))
	for i, src := range corpus {
		names[i] = prefix + "/" + src.name
	}
	return names
}

// compileLadder times every stage of a cold O2 compile on the 17-source
// corpus, then the same compile as one call, uncached and through the
// cache. Per-source medians are combined by geometric mean.
func compileLadder(res *layerResult, seed int64, d time.Duration, tr *tracer) error {
	corpus, err := compileCorpus()
	if err != nil {
		return err
	}
	core.ResetCompileCache()
	prev := core.SetArtifactStore(artifact.OpenMemory())
	defer func() { core.SetArtifactStore(prev); core.ResetCompileCache() }()
	c, err := newCorpusCompiler(corpus)
	if err != nil {
		return err
	}
	s := newSampler(tr, d)
	salt := seed*1_000_003 + 500_000
	var instrs, instrsAfter, changed float64
	for round := 0; round == 0 || s.more(); round++ {
		for i, src := range corpus {
			s.more()
			op := int64(round*len(corpus) + i)
			if text, err := files.ReadFile("programs/" + src.name + ".wl"); err == nil {
				s.time("parser.parse/"+src.name, -1, op, func(int) { _, _, err = parser.ParseSource(src.name, string(text)) })
				s.check(err == nil)
			}
			var stageErr error
			s.time("compile.stages/"+src.name, -1, op, func(root int) {
				fn := salted(src.fn, salt)
				salt++
				mod, err := frontEnd(s, c, src, fn, root, op)
				if err != nil {
					stageErr = err
					return
				}
				if round == 0 {
					instrs += float64(passes.ModuleSize(mod))
				}
				s.time("infer.solve/"+src.name, root, op, func(int) { err = infer.InferWith(mod, c.TypeEnv, fnreg.Default()) })
				if err != nil {
					stageErr = err
					return
				}
				s.time("core.resolve/"+src.name, root, op, func(int) { err = c.ResolveFunctions(mod) })
				if err != nil {
					stageErr = err
					return
				}
				pctx := &passes.Context{Env: c.TypeEnv, Opts: c.Options, Report: passes.NewReport()}
				s.time("passes.pipeline/"+src.name, root, op, func(int) { err = passes.RunPipeline(mod, pctx) })
				if err != nil {
					stageErr = err
					return
				}
				if round == 0 {
					instrsAfter += float64(passes.ModuleSize(mod))
					for _, p := range pctx.Report.Passes {
						changed += float64(p.Changed)
					}
				}
				s.time("codegen.closure/"+src.name, root, op, func(int) { _, err = codegen.CompileWithOptions(mod, codegen.CompileOptions{}) })
				stageErr = err
			})
			s.check(stageErr == nil)

			var ccf *core.CompiledCodeFunction
			fn := salted(src.fn, salt)
			salt++
			s.time("core.compile_o2/"+src.name, -1, op, func(int) {
				ccf, err = c.FunctionCompileRequest(fn, core.CompileRequest{SelfName: src.selfName})
			})
			s.check(err == nil && src.verify(c, ccf))
			fn = salted(src.fn, salt)
			salt++
			s.time("core.cached_miss/"+src.name, -1, op, func(int) {
				ccf, _, err = c.FunctionCompileCachedRequest(fn, core.CompileRequest{SelfName: src.selfName})
			})
			s.check(err == nil && src.verify(c, ccf))
		}
	}
	m := res.metrics
	m["parser.parse_us"] = s.geomeanUs(perSource("parser.parse", corpus))
	stageSum := make([]float64, len(corpus))
	for _, st := range compileStages {
		m[st+"_us"] = s.geomeanUs(perSource(st, corpus))
		for i, src := range corpus {
			stageSum[i] += s.us(st + "/" + src.name)
		}
	}
	m["core.compile_o2_us"] = s.geomeanUs(perSource("core.compile_o2", corpus))
	m["core.cached_miss_us"] = s.geomeanUs(perSource("core.cached_miss", corpus))
	// How much of the one-call compile the seven stage spans account for.
	var shares []float64
	for i, src := range corpus {
		shares = append(shares, stageSum[i]/s.us("core.compile_o2/"+src.name))
	}
	m["core.compile_stage_share"] = geomean(shares)
	m["wir.instrs"] = instrs
	m["passes.instrs_after"] = instrsAfter
	m["passes.changed"] = changed
	res.merge(s)
	return nil
}

// stencilAccepts lists the corpus sources the stencil tier compiles.
func stencilAccepts(corpus []compileSource) ([]compileSource, *core.Compiler, error) {
	sc, err := newCorpusCompiler(corpus)
	if err != nil {
		return nil, nil, err
	}
	sc.Stencil = true
	var out []compileSource
	for _, src := range corpus {
		if _, err := sc.FunctionCompileRequest(src.fn, core.CompileRequest{SelfName: src.selfName}); err == nil {
			out = append(out, src)
		}
	}
	if len(out) == 0 {
		return nil, nil, fmt.Errorf("the stencil tier accepts no corpus source")
	}
	return out, sc, nil
}

// stencilTier times the baseline tier's own stages (quick inference,
// stencil assembly) and its whole compile on the sources it accepts, and
// patcomp's analysis and synthesis of the gfib and dot2 DownValues.
func stencilTier(res *layerResult, seed int64, d time.Duration, tr *tracer) error {
	all, err := compileCorpus()
	if err != nil {
		return err
	}
	corpus, sc, err := stencilAccepts(all)
	if err != nil {
		return err
	}
	k := newKernel()
	if err := defineDownValues(k); err != nil {
		return err
	}
	intList := types.TensorOf(types.TInt64, 1)
	defs := []struct {
		sym   *expr.Symbol
		kinds []types.Type
	}{
		{expr.Sym("gfib"), []types.Type{types.TInt64}},
		{expr.Sym("dot2"), []types.Type{intList, intList}},
	}
	s := newSampler(tr, d)
	salt := seed*1_000_003 + 700_000
	for round := 0; round == 0 || s.more(); round++ {
		for i, src := range corpus {
			s.more()
			op := int64(round*len(corpus) + i)
			var stageErr error
			s.time("stencil.stages/"+src.name, -1, op, func(root int) {
				mod, err := frontEnd(s, sc, src, salted(src.fn, salt), root, op)
				salt++
				if err != nil {
					stageErr = err
					return
				}
				s.time("infer.quick/"+src.name, root, op, func(int) { err = infer.QuickWith(mod, sc.TypeEnv, fnreg.Default()) })
				if err != nil {
					stageErr = err
					return
				}
				s.time("codegen.stencil/"+src.name, root, op, func(int) {
					passes.InsertAbortChecks(mod)
					_, err = codegen.StencilCompile(mod)
				})
				stageErr = err
			})
			s.check(stageErr == nil)
			var ccf *core.CompiledCodeFunction
			fn := salted(src.fn, salt)
			salt++
			s.time("core.compile_stencil/"+src.name, -1, op, func(int) {
				ccf, err = sc.FunctionCompileRequest(fn, core.CompileRequest{SelfName: src.selfName})
			})
			s.check(err == nil && src.verify(sc, ccf))
		}
		for _, def := range defs {
			var pd *patcomp.Def
			s.time("patcomp.analyze/"+def.sym.Name, -1, int64(round), func(int) {
				pd, err = patcomp.Analyze(def.sym, k.DownValues(def.sym), def.kinds)
			})
			s.check(err == nil)
			if err == nil {
				s.time("patcomp.synthesize/"+def.sym.Name, -1, int64(round), func(int) { pd.Synthesize() })
			}
		}
	}
	m := res.metrics
	m["infer.quick_us"] = s.geomeanUs(perSource("infer.quick", corpus))
	m["codegen.stencil_us"] = s.geomeanUs(perSource("codegen.stencil", corpus))
	m["core.compile_stencil_us"] = s.geomeanUs(perSource("core.compile_stencil", corpus))
	m["patcomp.analyze_us"] = s.geomeanUs([]string{"patcomp.analyze/gfib", "patcomp.analyze/dot2"})
	m["patcomp.synthesize_us"] = s.geomeanUs([]string{"patcomp.synthesize/gfib", "patcomp.synthesize/dot2"})
	res.merge(s)
	return nil
}

// cacheAndStore times the two cache levels used both ways. One pass per
// source: a miss that compiles and writes, the same compile again (an
// in-memory hit), the same source on a fresh compiler (an artifact load);
// then the store's Get and Put on their own. The counters are read after
// the first pass, so they repeat exactly from run to run.
func cacheAndStore(res *layerResult, seed int64, d time.Duration, tr *tracer) error {
	corpus, err := compileCorpus()
	if err != nil {
		return err
	}
	core.ResetCompileCache()
	store := artifact.OpenMemory()
	prev := core.SetArtifactStore(store)
	defer func() { core.SetArtifactStore(prev); core.ResetCompileCache() }()
	c, err := newCorpusCompiler(corpus)
	if err != nil {
		return err
	}
	cache0 := core.CompileCacheStatsNow()
	s := newSampler(tr, d)
	salt := seed*1_000_003 + 900_000
	m := res.metrics
	var payloads [][]byte
	for round := 0; round == 0 || s.more(); round++ {
		fresh, err := newCorpusCompiler(corpus)
		if err != nil {
			return err
		}
		for i, src := range corpus {
			s.more()
			op := int64(round*len(corpus) + i)
			fn := salted(src.fn, salt)
			salt++
			req := core.CompileRequest{SelfName: src.selfName, Collect: true}
			ccf, _, err := c.FunctionCompileCachedRequest(fn, req)
			s.check(err == nil && src.verify(c, ccf))
			if err != nil {
				continue
			}
			if round == 0 {
				var buf bytes.Buffer
				if codegen.Marshal(&buf, ccf.Module) == nil {
					payloads = append(payloads, buf.Bytes())
				}
			}
			var rep *core.CompileReport
			s.time("core.cache_hit/"+src.name, -1, op, func(int) { ccf, rep, err = c.FunctionCompileCachedRequest(fn, req) })
			s.check(err == nil && rep != nil && rep.CacheHit)
			s.time("core.artifact_load/"+src.name, -1, op, func(int) { ccf, rep, err = fresh.FunctionCompileCachedRequest(fn, req) })
			s.check(err == nil && rep != nil && rep.ArtifactHit && src.verify(fresh, ccf))
		}
		if round == 0 {
			cs, st := core.CompileCacheStatsNow(), store.Stats()
			m["core.cache_hits"] = float64(cs.Hits - cache0.Hits)
			m["core.cache_misses"] = float64(cs.Misses - cache0.Misses)
			m["core.cache_coalesced"] = float64(cs.Coalesced - cache0.Coalesced)
			m["artifact.hits"] = float64(st.Hits)
			m["artifact.misses"] = float64(st.Misses)
			m["artifact.writes"] = float64(st.Writes)
			m["artifact.bytes_per_fn"] = float64(st.BytesOnDisk) / float64(st.Entries)
		}
		// The store on its own, with the modules this corpus serialises to.
		bare := artifact.OpenMemory()
		for i, p := range payloads {
			key := sha256.Sum256([]byte(fmt.Sprintf("%d/%d/%d", seed, round, i)))
			s.time("artifact.put", -1, int64(i), func(int) { bare.Put(string(key[:]), p) })
			var ok bool
			s.time("artifact.get", -1, int64(i), func(int) { _, ok = bare.Get(string(key[:])) })
			s.check(ok)
		}
	}
	m["core.cache_hit_us"] = s.geomeanUs(perSource("core.cache_hit", corpus))
	m["core.artifact_load_us"] = s.geomeanUs(perSource("core.artifact_load", corpus))
	m["artifact.get_us"] = s.us("artifact.get")
	m["artifact.put_us"] = s.us("artifact.put")
	res.merge(s)
	return nil
}
