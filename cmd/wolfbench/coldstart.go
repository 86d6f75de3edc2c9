package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	gort "runtime"
	"time"

	"wolfc/internal/artifact"
	"wolfc/internal/bench"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// The -coldstart mode (ROADMAP item 4): cold vs warm start against the
// persistent artifact store, written to BENCH_coldstart.json.
//
// Two phases run over the same corpus against the same artifact directory.
// The cold phase starts from an empty (or caller-provided) store and pays
// full compiles; the warm phase simulates a new process — fresh kernel,
// fresh compiler, in-memory cache dropped, store reopened — so every
// compile must be served by the disk tier. Per function the suite records
// time-to-first-result (compile + first call) and compile wall time, and
// requires the warm result bit-identical to the cold one.
//
// The suite reports numbers and enforces only result identity; the
// warm-compile gate lives in scripts/verify.sh, so a re-run against a
// pre-populated store (the corrupt-artifact smoke test) is not misjudged
// against cold-start expectations.

var (
	coldstartF   = flag.Bool("coldstart", false, "run the artifact-store cold/warm-start suite")
	coldstartOut = flag.String("coldstart-out", "BENCH_coldstart.json", "output path for the -coldstart JSON document")
)

type coldstartPhaseRow struct {
	compileNs float64
	firstNs   float64
	artifact  bool
	checksum  string
}

type coldstartRow struct {
	Name          string  `json:"name"`
	ColdCompileNs float64 `json:"cold_compile_ns"`
	WarmCompileNs float64 `json:"warm_compile_ns"`
	ColdFirstNs   float64 `json:"cold_first_result_ns"`
	WarmFirstNs   float64 `json:"warm_first_result_ns"`
	ArtifactHit   bool    `json:"warm_artifact_hit"`
	Checksum      string  `json:"checksum"`
	Match         bool    `json:"warm_matches_cold"`
}

// coldstartPhase compiles and runs the corpus once against the store in
// dir, as a fresh "process": new kernel, new compiler, in-memory compile
// cache dropped, artifact store reopened from disk. The returned stats
// belong to this phase's store instance (counters start at zero).
func coldstartPhase(dir string) ([]coldstartPhaseRow, artifact.Stats, error) {
	core.ResetCompileCache()
	core.SetArtifactStore(nil)
	s, err := core.EnableArtifactStore(dir)
	if err != nil {
		return nil, artifact.Stats{}, err
	}
	k := kernel.New()
	k.Out = io.Discard
	c := core.NewCompiler(k)
	rows := make([]coldstartPhaseRow, 0, len(bench.ColdstartKernels))
	for _, ent := range bench.ColdstartKernels {
		fn := parser.MustParse(ent.Src)
		t0 := time.Now()
		ccf, rep, err := c.FunctionCompileCachedRequest(fn, core.CompileRequest{Collect: true})
		compileNs := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, artifact.Stats{}, fmt.Errorf("%s: %w", ent.Name, err)
		}
		out, err := ccf.Apply([]expr.Expr{expr.FromInt64(ent.Arg)})
		if err != nil {
			return nil, artifact.Stats{}, fmt.Errorf("%s: %w", ent.Name, err)
		}
		rows = append(rows, coldstartPhaseRow{
			compileNs: compileNs,
			firstNs:   float64(time.Since(t0).Nanoseconds()),
			artifact:  rep != nil && rep.ArtifactHit,
			checksum:  expr.InputForm(out),
		})
	}
	return rows, s.Stats(), nil
}

// sumArtifactStats folds two per-phase counter snapshots into run totals
// (BytesOnDisk/Entries are point-in-time, so the later phase's value wins).
func sumArtifactStats(a, b artifact.Stats) artifact.Stats {
	return artifact.Stats{
		Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses,
		Writes: a.Writes + b.Writes, WriteErrors: a.WriteErrors + b.WriteErrors,
		CorruptDrops: a.CorruptDrops + b.CorruptDrops,
		Evictions:    a.Evictions + b.Evictions,
		BytesOnDisk:  b.BytesOnDisk, Entries: b.Entries,
	}
}

// coldstartSuite is the -coldstart entry point; returns the process exit
// code.
func coldstartSuite() int {
	dir := *artifactDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "wolfc-coldstart")
		if err != nil {
			fmt.Fprintln(os.Stderr, "wolfbench: -coldstart:", err)
			return 1
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	fmt.Println("=== Cold vs warm start: persistent artifact store, fresh process each phase ===")
	fmt.Printf("(artifact dir %s)\n\n", dir)

	cold, coldStats, err := coldstartPhase(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -coldstart: cold phase:", err)
		return 1
	}
	warm, warmStats, err := coldstartPhase(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -coldstart: warm phase:", err)
		return 1
	}

	var rows []coldstartRow
	var coldTotal, warmTotal float64
	allMatch := true
	fmt.Printf("%-12s %14s %14s %9s %9s  %s\n",
		"function", "cold compile", "warm compile", "speedup", "artifact", "match")
	for i, ent := range bench.ColdstartKernels {
		r := coldstartRow{
			Name:          ent.Name,
			ColdCompileNs: cold[i].compileNs,
			WarmCompileNs: warm[i].compileNs,
			ColdFirstNs:   cold[i].firstNs,
			WarmFirstNs:   warm[i].firstNs,
			ArtifactHit:   warm[i].artifact,
			Checksum:      cold[i].checksum,
			Match:         cold[i].checksum == warm[i].checksum,
		}
		rows = append(rows, r)
		coldTotal += r.ColdCompileNs
		warmTotal += r.WarmCompileNs
		if !r.Match {
			allMatch = false
			fmt.Fprintf(os.Stderr,
				"wolfbench: -coldstart: %s diverged: cold %s, warm %s\n",
				ent.Name, cold[i].checksum, warm[i].checksum)
		}
		fmt.Printf("%-12s %14s %14s %8.1fx %9v  %v\n", r.Name,
			fmtNs(r.ColdCompileNs), fmtNs(r.WarmCompileNs),
			r.ColdCompileNs/r.WarmCompileNs, r.ArtifactHit, r.Match)
	}
	speedup := coldTotal / warmTotal
	fmt.Printf("%-12s %14s %14s %8.1fx\n\n", "total",
		fmtNs(coldTotal), fmtNs(warmTotal), speedup)

	cs := core.CompileCacheStatsNow()
	doc := struct {
		Schema        string         `json:"schema"`
		Env           envJSON        `json:"env"`
		ArtifactDir   string         `json:"artifact_dir"`
		Rows          []coldstartRow `json:"rows"`
		ColdCompileNs float64        `json:"cold_total_compile_ns"`
		WarmCompileNs float64        `json:"warm_total_compile_ns"`
		WarmSpeedup   float64        `json:"warm_compile_speedup"`
		AllMatch      bool           `json:"all_outputs_match"`
		CompileCache  cacheStatsJSON `json:"compile_cache"`
		// ArtifactCold/ArtifactWarm are the per-phase store counters (each
		// phase reopens the store, so each starts at zero); artifact_store
		// sums them for readers that only care about totals.
		ArtifactCold artifact.Stats `json:"artifact_store_cold"`
		ArtifactWarm artifact.Stats `json:"artifact_store_warm"`
		Artifact     artifact.Stats `json:"artifact_store"`
	}{
		Schema: "wolfbench/coldstart/v1",
		Env: envJSON{
			GoVersion: gort.Version(), GOOS: gort.GOOS, GOARCH: gort.GOARCH,
			GOMAXPROCS: gort.GOMAXPROCS(0), NumCPU: gort.NumCPU(),
		},
		ArtifactDir:   dir,
		Rows:          rows,
		ColdCompileNs: coldTotal,
		WarmCompileNs: warmTotal,
		WarmSpeedup:   speedup,
		AllMatch:      allMatch,
		CompileCache:  cacheJSON(cs),
		ArtifactCold:  coldStats,
		ArtifactWarm:  warmStats,
		Artifact:      sumArtifactStats(coldStats, warmStats),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -coldstart:", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(*coldstartOut, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "wolfbench: -coldstart:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", *coldstartOut)
	if !allMatch {
		return 1
	}
	return 0
}
