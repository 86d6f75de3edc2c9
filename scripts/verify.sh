#!/usr/bin/env sh
# verify.sh — the repo's full acceptance run.
#
#   scripts/verify.sh          # gofmt, tier 1, then the checks go test cannot make
#   scripts/verify.sh -fast    # gofmt, tier 1 and the size report only
#
# Tier 1 (ROADMAP.md) is the gate list: build, vet, tests, race tests. Every
# differential and smoke check lives there as a Go test in the package that
# owns the mechanism (cmd's TestTierDifferential and TestWolfserveEndToEnd
# drive the built binaries), so the pipeline, which runs nothing but tier 1,
# enforces them. Speed is checked in one place too: the pipeline runs
# benchmark/ (BENCHMARK.json) parent against change on every PR, and nothing
# here times anything. What is left for this script is what needs gofmt, the
# real go:generate line, the compiler's inlining report, or the benchmark
# module (its own module, invisible to the root's go test).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt: the tree is formatted =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "verify: FAIL — gofmt -l lists files that are not gofmt-formatted:"
    echo "$unformatted"
    exit 1
fi

echo "== tier 1: go build =="
go build ./...
echo "== tier 1: go vet =="
go vet ./...
echo "== tier 1: go test =="
go test ./...
echo "== tier 1: go test -race =="
go test -race ./...

# count PATH...: non-test Go lines under the paths.
count() {
    find "$@" -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
}

# A simplification is accepted by its net-negative non-test line count (ROADMAP
# items 3 and 4); both exits print the counts so each re-anchor reads them off
# the log.
size_report() {
    echo "== size: non-test Go lines =="
    # internal/vm is Figure 2's bytecode baseline.
    for paths in internal/core/tier.go internal/core internal/codegen internal/infer internal/passes internal/types "internal/passes internal/types" internal/wir "internal/passes internal/wir" "internal/codegen internal/wir internal/passes" internal/vm "internal/runtime internal/blas" internal/obs "internal/codegen internal/core internal/obs" cmd/wolfbench internal/bench "cmd/wolfbench internal/bench benchmark"; do
        echo "$paths: $(count $paths)"
    done
    # Generated code is not maintained by hand: count it apart (ISSUE 17).
    gen="$(find internal/codegen -name '*.go' ! -name '*_test.go' | xargs grep -l '^// Code generated .* DO NOT EDIT\.$')"
    echo "internal/codegen generated ($(echo $gen)): $(cat $gen | wc -l)"
    echo "internal/codegen hand-written: $(find internal/codegen -name '*.go' ! -name '*_test.go' | grep -v -F "$gen" | xargs cat | wc -l)"
    # ROADMAP item 25's gate: the four packages a scalar native was spelled in.
    echo "internal/codegen internal/passes internal/types internal/runtime hand-written: $(find internal/codegen internal/passes internal/types internal/runtime -name '*.go' ! -name '*_test.go' | grep -v -F "$gen" | xargs cat | wc -l)"
    # The C backend: its emitter and natives table, and the wolfrt.h it links.
    echo "internal/codegen/cbackend.go internal/codegen/wolfrt_c.go: $(count internal/codegen/cbackend.go internal/codegen/wolfrt_c.go)"
    echo "scripts/verify.sh: $(wc -l < scripts/verify.sh) lines"
    echo "internal/codegen/fusion_modes.go: $(wc -l < internal/codegen/fusion_modes.go) generated lines"
    echo "== size: what one compiler, one tiered session, one interpreted query of each of gfib and dot2 (parse and evaluate), 21 891 compiled calls (cfib[20]), inferring the 14-source corpus, compiling it uncached, loading it from the artifact store (decode + codegen), loading it on a second kernel (resident programs), lowering, inferring and optimising 15 corpus modules (the pass pipeline) and compiling a mutual-recursion pair as one module on each rung cost =="
    go test -run '^$' -bench 'NewCompiler$|EngineNewClose$|EvalQuery$|CallOverhead$|Infer$|CorpusCompile$|ArtifactLoad$|ResidentLoad$|Pipeline$|GroupCompile$' -benchmem -benchtime 200x ./internal/core ./internal/engine ./internal/passes | grep '^Benchmark'
    echo "== size: the tensor loops of Figure 2, and the random walk, which allocates its packed matrix and 0 times a step =="
    go test -run '^$' -bench 'Fig2/(blur|histogram|qsort)/compiled$|Figure1RandomWalk/compiled$' -benchmem -benchtime 20x -cpu 1 . | grep '^Benchmark'
}

if [ "${1:-}" = "-fast" ]; then
    size_report
    echo "verify: tier-1 OK (generate, inliner and benchmark-module checks skipped)"
    exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== codegen: the operand-mode variants are what modegen generates =="
# internal/codegen/fusion_modes.go is generated from the op table in
# internal/codegen/modegen (ISSUE 17). TestGeneratedFileIsFresh in tier 1
# compares the two in memory; this runs the real go:generate line, so a
# broken directive or output path fails too.
go generate ./internal/codegen
git diff --exit-code -- internal/codegen/fusion_modes.go || {
    echo "verify: FAIL — internal/codegen/fusion_modes.go is stale; commit what go generate wrote"
    exit 1
}

echo "== runtime: the checked fast paths still inline =="
# AddI64 and SubI64 cost 78 against the Go inliner's budget of 80, StringByte
# 78, Off2 50, Off1 11, IsShared 8: a loop counter's increment, a string's
# byte, an element's bounds test and a store's copy-on-write test are not
# calls. One more node in any of them silently turns it back into one, and the
# only symptom would be a slower benchmark — since ISSUE 21 in the one closure
# per element kind that spells each access. (The names are grep patterns.)
# The scalar table's functions that modegen's rows name (real + - * /, the
# bit ops, the compares, the literal shift) are as small, and the generated
# bodies of Mandelbrot's and Blur's inner loops call them: every runtime
# function the generated file calls, but the checked multiply and the
# dividing forms, which never inlined. RowSpan (cost under 80) is the bounds
# and shape test of a packed array's row read (Row).
named="$(grep -o 'runtime\.[A-Za-z0-9]*(' internal/codegen/fusion_modes.go | sed 's/runtime\.//; s/($//' |
    sort -u | grep -v -x -e MulI64 -e ModI64 -e QuotI64)"
inl="$(go build -gcflags=-m ./internal/runtime 2>&1)"
for fn in AddI64 SubI64 Off1 StringByte '(\*Tensor).Off2' '(\*Tensor).IsShared' '(\*Tensor).RowSpan' $named; do
    echo "$inl" | grep -q "can inline $fn\$" || {
        echo "verify: FAIL — runtime.$fn no longer inlines:"
        go build -gcflags=-m=2 ./internal/runtime 2>&1 | grep " $fn:" | head -3
        exit 1
    }
done
echo "AddI64, SubI64, Off1, StringByte, Off2, IsShared, RowSpan and the table functions modegen names inline"

echo "== codegen: the call path's helpers still inline =="
# A call node evaluates its operands (op*.get), finds its callee, enters it
# (whose prologue re-slices with resized and polls with Aborted) and leaves
# it, and an If tests with test.eval: none of them may become a call of its
# own. The pass of each signature relies on get and callee inlining into it.
inl="$(go build -gcflags=-m ./internal/codegen 2>&1)"
for fn in 'resized\[int64\]' '(\*RT).Aborted' '(\*RT).leave' '(\*callSite).callee' opI.get opF.get opC.get opB.get test.eval; do
    echo "$inl" | grep -q "can inline $fn\$" || {
        echo "verify: FAIL — codegen.$fn no longer inlines:"
        go build -gcflags=-m=2 ./internal/codegen 2>&1 | grep "inline $fn" | head -3
        exit 1
    }
done
for fn in opI.get '(\*callSite).callee'; do
    echo "$inl" | grep -q "fusion_modes.go:.*inlining call to $fn\$" || {
        echo "verify: FAIL — the passes no longer inline $fn"
        exit 1
    }
done
for fn in $named; do
    echo "$inl" | grep -q "fusion_modes.go:.*inlining call to runtime.$fn\$" || {
        echo "verify: FAIL — the operand-mode variants no longer inline runtime.$fn"
        exit 1
    }
done
# A generated constructor inlined into its builder has its closure compiled
# there, where those calls stay calls (Blur's sum node lost 20 % that way).
if echo "$inl" | grep -q "inlining call to sumF"; then
    echo "verify: FAIL — the sum node's constructors are inlined into their builders"
    exit 1
fi
echo "resized, Aborted, leave, callee, the operands' get and test.eval inline"

echo "== obs: the guarded recording sites still inline =="
# The obs package doc promises one atomic load and one predictable branch per
# guarded site when recording is off: the guards and the record calls behind
# them must not become calls.
inl="$(go build -gcflags=-m ./internal/obs 2>&1)"
for fn in Enabled TraceEnabled '(\*FuncMetrics).RecordInvoke' '(\*FuncMetrics).RecordFallback' '(\*FuncMetrics).RecordAbort' '(\*Counter).Inc'; do
    echo "$inl" | grep -q "can inline $fn\$" || {
        echo "verify: FAIL — obs.$fn no longer inlines:"
        go build -gcflags=-m=2 ./internal/obs 2>&1 | grep " $fn:" | head -3
        exit 1
    }
done
echo "Enabled, TraceEnabled, RecordInvoke, RecordFallback, RecordAbort and Counter.Inc inline"

echo "== benchmark: the benchmark module builds, passes its tests, and checks its programs =="
# benchmark/ is a module of its own (root `go test ./...` does not see it).
# Every timed operation there is compared with benchmark/expected/*.txt, so
# two seconds of the tensor workload and two of the scalar one catch a
# codegen change that breaks a program's checksum before anyone measures it
# (the tensor programs alone would miss an edit to a scalar op), two of
# compile_cold run every corpus function it has just compiled, which catches
# an inference change that picks another overload (ISSUE 18), and two of
# compile_warm load that corpus back from the artifact store, which catches
# a change to what stored modules carry that the key version missed.
go -C benchmark vet .
go -C benchmark test .
for wl in fig2_tensor fig2_scalar compile_cold compile_warm; do
    bash benchmark/run.sh --workload "$wl" --seed 1 --seconds 2 --trace 0 > "$tmp/bench.out"
    tail -n 1 "$tmp/bench.out" | grep -q '"correct":true' &&
        tail -n 1 "$tmp/bench.out" | grep -q '"failed":0[,}]' || {
        echo "verify: FAIL — benchmark smoke: a $wl program's output is wrong or an operation failed"
        tail -n 5 "$tmp/bench.out"
        exit 1
    }
done

size_report
echo "verify: OK"
