package main

// metricSpec is one line of BENCHMARK.json's end_to_end or per_layer list.
// The lists here and there must agree; benchmark_test.go checks it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports with -trace 0. All times
// are quiet-machine microseconds (calib.go).
//
//	setup_s            median of setupRepeats complete set-ups in this process:
//	                   build kernels, compilers and servers, generate inputs,
//	                   compile, warm caches and tiers
//	op_p50_us          geometric mean over the workload's rows of the median
//	                   time of one operation
//	ops_per_s          operations completed per second the clients spent inside
//	                   operations, summed over clients
//	ref_ratio_geomean  geometric mean over rows of median operation time /
//	                   median reference time: the row's Go implementation on the
//	                   same input (Figure 2's y-axis) on fig2_*, the calibration
//	                   loop elsewhere
//	alloc_kb_per_op    heap bytes allocated during the window / operations
//	peak_rss_mb        VmHWM of the process when the window closes
//
// Each row's 95th percentile is in the row table (standard error, -out) but
// is not a metric: on the fig2 rows the tail of a deterministic computation
// is whatever share of the window the neighbours' bursts covered, and its
// run-to-run spread reached 22%, too close to any bound the driver allows.
// Failed operations travel in the result line's "failed" and "attempted",
// not as a metric: a metric must never be 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"ref_ratio_geomean", "x", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayerMetrics are the metrics of the -trace 1 suite (layers*.go).
var perLayerMetrics = func() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	add("ratio", "lower", "trace_overhead_ratio")
	// Compile ladder: stages of one cold O2 compile, geomean over 17 sources.
	add("us", "lower", "parser.parse_us", "macro.expand_us", "binding.analyze_us", "wir.lower_us",
		"infer.solve_us", "core.resolve_us", "passes.pipeline_us", "codegen.closure_us",
		"core.compile_o2_us", "core.cached_miss_us")
	add("count", "lower", "wir.instrs", "passes.instrs_after", "passes.changed")
	add("ratio", "higher", "core.compile_stage_share")
	// Stencil tier.
	add("us", "lower", "infer.quick_us", "codegen.stencil_us", "core.compile_stencil_us",
		"patcomp.analyze_us", "patcomp.synthesize_us")
	// Cache and store.
	add("us", "lower", "core.cache_hit_us", "core.artifact_load_us", "artifact.get_us", "artifact.put_us")
	add("count", "higher", "core.cache_hits", "artifact.hits")
	add("count", "lower", "core.cache_misses", "core.cache_coalesced", "artifact.misses", "artifact.writes")
	add("B", "lower", "artifact.bytes_per_fn")
	// Generated code.
	for _, p := range programs() {
		add("us", "lower", "program."+p.name+".compiled_us", "program."+p.name+".ref_us")
		if isStencilProgram(p.name) {
			add("us", "lower", "program."+p.name+".stencil_us")
		}
	}
	add("us", "lower", "codegen.noabort_geomean_us", "codegen.unfused_geomean_us", "kernel.interp_fib_us")
	add("count", "lower", "runtime.mallocs_per_op")
	// Apply boundary.
	add("us", "lower", "core.apply_us", "codegen.callraw_us", "runtime.unbox_tensor_us", "runtime.box_tensor_us")
	add("ns", "lower", "runtime.unbox_scalar_ns")
	// Serve ladder.
	for _, class := range classNames {
		add("us", "lower", "serve.http_us."+class, "serve.handler_us."+class, "engine.eval_us."+class,
			"parser.parse_query_us."+class, "kernel.run_us."+class)
	}
	add("us", "lower", "expr.print_us")
	add("count", "lower", "serve.rejected", "serve.errors")
	add("ratio", "lower", "obs.armed_overhead_ratio")
	// Tenant ladder.
	add("us", "lower", "serve.session_create_us", "serve.session_destroy_us", "tenant.client_self_us", "engine.new_us",
		"engine.close_us", "kernel.define_us", "fnreg.cycle_us")
	add("ms", "lower", "core.tier.to_stencil_ms", "core.tier.to_o2_ms")
	add("count", "higher", "core.tier.promotions", "core.tier.upgrades")
	add("count", "lower", "core.tier.guard_misses", "core.tier.fallbacks")
	return out
}()
