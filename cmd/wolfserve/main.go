// Command wolfserve runs the multi-tenant evaluation service: per-session
// isolated engines (kernel + compiler + tiering + registry namespace) over
// HTTP/JSON, with the process-wide compile cache and artifact store shared
// across sessions so tenants warm each other's compiles.
//
//	wolfserve -addr :8080 -autocompile
//	curl -s -X POST localhost:8080/v1/sessions                      # {"id":"s-1"}
//	curl -s -X POST localhost:8080/v1/sessions/s-1/eval \
//	     -d '{"input":"f[n_] := 2*n + 1; f[20]", "timeout_ms": 5000}'
//	curl -s -X DELETE localhost:8080/v1/sessions/s-1
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"wolfc/internal/artifact"
	"wolfc/internal/core"
	"wolfc/internal/obs"
	"wolfc/internal/serve"
)

var (
	addr        = flag.String("addr", ":8080", "listen address")
	maxSessions = flag.Int("max-sessions", 64, "maximum live sessions; creation past this answers 429")
	maxInflight = flag.Int("max-inflight", 32, "maximum concurrently admitted eval requests; admission past this answers 429")
	defTimeout  = flag.Duration("default-timeout", 30*time.Second, "evaluation deadline when a request omits timeout_ms")
	maxTimeout  = flag.Duration("max-timeout", 5*time.Minute, "hard cap on any requested evaluation deadline")

	autoCompile          = flag.Bool("autocompile", true, "tiered execution inside each session: compile hot definitions in the background")
	autoCompileThreshold = flag.Uint64("autocompile-threshold", 50, "invocation count at which a definition is promoted to the optimising tier")
	tierWorkers          = flag.Int("autocompile-workers", 1, "background compile workers per session (0 = GOMAXPROCS)")

	idleTimeout = flag.Duration("idle-timeout", 0, "evict sessions idle this long (0 = never)")

	traceCapture = flag.Int("trace-capture", 256, "keep this many recent request trace trees in memory behind /debug/traces (0 = off)")
	traceSample  = flag.Float64("trace-sample", 1.0, "probabilistic request-trace sampling rate in [0,1]")
	traceOut     = flag.String("trace-out", "", "also append JSONL trace events to this file")

	artifactDir = flag.String("artifact-dir", os.Getenv("WOLFC_ARTIFACT_DIR"),
		"persist compiled artifacts to this directory, shared across sessions and server restarts (also WOLFC_ARTIFACT_DIR; empty = in-process memory store shared across sessions only)")
)

func main() {
	flag.Parse()

	// The artifact tier is keyed by the registry-free stable content key, so
	// every session shares it: tenant B's first compile of a function tenant
	// A already compiled is a cheap load instead of a full pipeline run.
	// With no directory configured the store is memory-backed — shared
	// within the process, gone at exit.
	if *artifactDir != "" {
		if _, err := core.EnableArtifactStore(*artifactDir); err != nil {
			fmt.Fprintf(os.Stderr, "wolfserve: artifact store: %v\n", err)
			os.Exit(1)
		}
	} else {
		core.SetArtifactStore(artifact.OpenMemory())
	}

	// Request tracing: the in-memory recent-traces store backs
	// /debug/traces (JSON and ?format=chrome); the optional JSONL file sink
	// rides the same collector. Sampling is decided per trace id, so one
	// request's events share a single fate across all layers.
	obs.SetTraceSampling(*traceSample)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wolfserve: trace-out: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		obs.SetTraceWriter(f)
		defer obs.SetTraceWriter(nil) // detach = final synchronous drain
	}
	if *traceCapture > 0 {
		obs.EnableTraceCapture(*traceCapture)
	}

	// Parse the standard library (the roots behind types.Builtin and
	// macro.DefaultEnv) before listening, so no tenant's first session does.
	core.NewCompiler(nil)

	srv := serve.NewServer(serve.Options{
		MaxSessions:    *maxSessions,
		MaxInflight:    *maxInflight,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Tiering:        *autoCompile,
		Tier: core.TierPolicy{
			Threshold: *autoCompileThreshold,
			Workers:   *tierWorkers,
		},
		IdleTimeout: *idleTimeout,
	})
	// Listen before logging, so the line names the address that was bound
	// (-addr 127.0.0.1:0 takes whatever port is free).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wolfserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wolfserve: listening on %s (max-sessions %d, max-inflight %d)\n",
		ln.Addr(), *maxSessions, *maxInflight)
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintf(os.Stderr, "wolfserve: %v\n", err)
		os.Exit(1)
	}
}
