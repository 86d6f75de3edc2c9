#!/usr/bin/env sh
# verify.sh — the repo's full acceptance gate.
#
#   scripts/verify.sh          # tier-1 suite + differential, ratio and smoke gates
#   scripts/verify.sh -fast    # tier-1 suite only (skip the gates)
#
# Tier 1 (ROADMAP.md): build, vet, tests, race tests. Every gate after it is
# a differential (byte-identical outputs), a ratio taken inside one run, or a
# smoke test; none compares with a recorded absolute time — the pipeline's
# parent-vs-change benchmark run is the regression check for speed.
set -eu
cd "$(dirname "$0")/.."

echo "== tier 1: go build =="
go build ./...
echo "== tier 1: go vet =="
go vet ./...
echo "== tier 1: go test =="
go test ./...
echo "== tier 1: go test -race =="
go test -race ./...

# ROADMAP item 3 accepts a simplification by its net-negative non-test line
# count; both exits print it so each re-anchor reads it off the log.
size_report() {
    echo "== size: non-test Go lines in internal/core/tier.go, internal/core, internal/codegen, and internal/codegen + internal/core + internal/obs =="
    for paths in internal/core/tier.go internal/core internal/codegen "internal/codegen internal/core internal/obs"; do
        echo "$paths: $(find $paths -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
    done
    # Generated code is not maintained by hand: count it apart (ISSUE 17).
    gen="$(find internal/codegen -name '*.go' ! -name '*_test.go' | xargs grep -l '^// Code generated .* DO NOT EDIT\.$')"
    echo "internal/codegen generated ($(echo $gen)): $(cat $gen | wc -l)"
    echo "internal/codegen hand-written: $(find internal/codegen -name '*.go' ! -name '*_test.go' | grep -v -F "$gen" | xargs cat | wc -l)"
    echo "scripts/verify.sh: $(wc -l < scripts/verify.sh) lines"
    echo "internal/codegen/fusion_modes.go: $(wc -l < internal/codegen/fusion_modes.go) generated lines"
    echo "== size: what one compiler, one tiered session (ISSUE 16), 21 891 compiled calls (cfib[20], ISSUE 17) and inferring the 14-source corpus (ISSUE 18) cost =="
    go test -run '^$' -bench 'NewCompiler$|EngineNewClose$|CallOverhead$|Infer$' -benchmem -benchtime 200x ./internal/core ./internal/engine | grep '^Benchmark'
    echo "== size: the tensor loops of Figure 2 and the random walk's allocations (ISSUE 19) =="
    go test -run '^$' -bench 'Fig2/(blur|histogram|qsort)/compiled$|Figure1RandomWalk/compiled$' -benchmem -benchtime 20x -cpu 1 . | grep '^Benchmark'
}

if [ "${1:-}" = "-fast" ]; then
    size_report
    echo "verify: tier-1 OK (benchmark gate skipped)"
    exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== codegen gate: the operand-mode variants are what modegen generates =="
# internal/codegen/fusion_modes.go is generated from the op table in
# internal/codegen/modegen (ISSUE 17). TestGeneratedFileIsFresh in tier 1
# already compares the two in memory; this runs the real go:generate line, so
# a broken directive or output path fails too.
go generate ./internal/codegen
git diff --exit-code -- internal/codegen/fusion_modes.go || {
    echo "verify: FAIL — internal/codegen/fusion_modes.go is stale; commit what go generate wrote"
    exit 1
}

echo "== runtime gate: the checked fast paths still inline =="
# AddI64 and SubI64 cost 78 against the Go inliner's budget of 80, StringByte
# 78, Off1 11: a loop counter's increment, a string's byte and an element's
# bounds test are not calls. One more node in any of them silently turns it
# back into one, and the only symptom would be a slower benchmark.
inl="$(go build -gcflags=-m ./internal/runtime 2>&1)"
for fn in AddI64 SubI64 Off1 StringByte; do
    echo "$inl" | grep -q "can inline $fn\$" || {
        echo "verify: FAIL — runtime.$fn no longer inlines:"
        go build -gcflags=-m=2 ./internal/runtime 2>&1 | grep " $fn:" | head -3
        exit 1
    }
done
echo "AddI64, SubI64, Off1 and StringByte inline"

echo "== benchmark gate: the benchmark module builds, passes its tests, and checks its programs =="
# benchmark/ is a module of its own (root `go test ./...` does not see it).
# Every timed operation there is compared with benchmark/expected/*.txt, so
# two seconds of the tensor workload and two of the scalar one catch a
# codegen change that breaks a program's checksum before anyone measures it
# (the tensor programs alone would miss an edit to a scalar op), and two of
# compile_cold run every corpus function it has just compiled, which catches
# an inference change that picks another overload (ISSUE 18).
go -C benchmark vet .
go -C benchmark test .
for wl in fig2_tensor fig2_scalar compile_cold; do
    bash benchmark/run.sh --workload "$wl" --seed 1 --seconds 2 --trace 0 > "$tmp/bench.out"
    tail -n 1 "$tmp/bench.out" | grep -q '"correct":true' &&
        tail -n 1 "$tmp/bench.out" | grep -q '"failed":0[,}]' || {
        echo "verify: FAIL — benchmark smoke: a $wl program's output is wrong or an operation failed"
        tail -n 5 "$tmp/bench.out"
        exit 1
    }
done

echo "== tier gates: every tiered mode of wolfrepl is bit-identical to the interpreter =="
# Tiered execution (ISSUE 5) promotes hot DownValues to compiled code in the
# background; the baseline configuration (ISSUE 6) sits between the
# interpreter and the optimising backend. On each corpus all four execution
# modes must produce byte-identical stdout: plain, tiered,
# -autocompile-stencil-only (hot definitions pinned to the baseline tier;
# shapes it cannot hold fall back to the full pipeline) and
# -autocompile-no-stencil (straight to O2). The threshold of 2 promotes
# everything a corpus defines. The example corpus covers overflow fallback,
# guard misses, redefinition and Clear. The generated pattern corpus
# (cmd/patgen -> examples/patterns/corpus.wl, ISSUE 10) mixes literal rules,
# head restrictions, /; guards, list destructuring and repeated variables
# with calls that hit, guard-miss, kind-miss and fall outside the compiled
# fragment; -autocompile-drain makes its tier transitions deterministic so
# the compiled path is actually exercised, and its stats must prove both
# compiled dispatches and guard misses happened.
go build -o "$tmp/wolfrepl" ./cmd/wolfrepl
# tier_diff CORPUS FLAGS...: run CORPUS through wolfrepl -autocompile with
# FLAGS and require stdout identical to the plain run in $tmp/plain.out;
# the stats line is left in $tmp/stats.
tier_diff() {
    corpus="$1"; shift
    "$tmp/wolfrepl" -autocompile -autocompile-threshold 2 "$@" \
        < "$corpus" > "$tmp/tiered.out" 2> "$tmp/stats"
    cmp "$tmp/plain.out" "$tmp/tiered.out" || {
        echo "verify: FAIL — $corpus diverged from the interpreter (flags: ${*:-none})"
        diff "$tmp/plain.out" "$tmp/tiered.out" | head -20
        exit 1
    }
}
"$tmp/wolfrepl" < examples/autocompile/corpus.wl > "$tmp/plain.out"
for mode in "" -autocompile-stencil-only -autocompile-no-stencil; do
    tier_diff examples/autocompile/corpus.wl $mode
    cat "$tmp/stats"
done
"$tmp/wolfrepl" < examples/patterns/corpus.wl > "$tmp/plain.out"
for mode in "" -autocompile-stencil-only -autocompile-no-stencil; do
    tier_diff examples/patterns/corpus.wl -autocompile-drain $mode
    cat "$tmp/stats"
    if grep -q -e " 0 compiled dispatches" -e " 0 guard misses" "$tmp/stats"; then
        echo "verify: FAIL — pattern corpus never dispatched compiled code, or never missed a guard (mode: ${mode:-default})"
        exit 1
    fi
done
# The checked-in corpus must be exactly what the generator emits.
go run ./cmd/patgen > "$tmp/corpus-regen.wl"
cmp examples/patterns/corpus.wl "$tmp/corpus-regen.wl" || {
    echo "verify: FAIL — examples/patterns/corpus.wl is stale; regenerate with cmd/patgen"
    exit 1
}

echo "== pattern gate: guarded dispatch speedup (compiled <10x over interpreter fails) =="
# The acceptance workload: a definition with _Integer blanks and a /;
# guard auto-promotes and must beat the interpreter by >=10x (measured
# ~80x). The symbolic-differentiation row never sketches to machine kinds,
# so it must stay interpreted and cost within 1.5x of the plain kernel —
# the dispatch hook's sketch rejection has to be cheap. Best-of-3 filters
# shared-host load spikes.
for i in 1 2 3; do
    go run ./cmd/wolfbench -patterns -json "$tmp/patterns$i.json" >/dev/null
done
python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]
gfib = 1e9
deriv = 1e9
for i in (1, 2, 3):
    d = json.load(open(f"{tmp}/patterns{i}.json"))
    ns = {(r["name"], r["impl"]): r["ns_per_op"] for r in d["results"]}
    gfib = min(gfib, ns[("patterns_gfib", "tiered")] / ns[("patterns_gfib", "interpreter")])
    deriv = min(deriv, ns[("patterns_deriv", "tiered")] / ns[("patterns_deriv", "interpreter")])
print(f"guarded fib: compiled dispatch {1/gfib:.1f}x over the interpreter (gate 10x)")
if 1 / gfib < 10:
    sys.exit(f"verify: FAIL — guarded pattern dispatch only {1/gfib:.1f}x over the interpreter")
print(f"symbolic differentiation: tiered kernel at {deriv:.2f}x interpreter cost (gate 1.5x)")
if deriv > 1.5:
    sys.exit(f"verify: FAIL — un-promotable workload pays {deriv:.2f}x under tiering")
EOF

echo "== stencil gate: compile latency and warmup (backend <2.5x fails, steady <5x fails) =="
# The point of the baseline tier is compile latency. Both tiers run the
# same closure backend (the stencil tier is its fusion-off configuration,
# ISSUE 13), so the gate measures what the configuration skips: the backend
# ratio is quick-infer + abort checks + unfused codegen vs inference +
# resolution + passes + fused codegen. The MExpr front half
# (macro/binding/lower) is shared verbatim by both tiers and would otherwise
# dilute the comparison; both ratios are reported in the JSON (see
# EXPERIMENTS.md). The bound was 10x while inference cost 70-80 % of an O2
# compile (12x measured); ISSUE 18 made inference 6x cheaper, the ratio reads
# 5.2-5.7x, and the bound is half of that. Steady-state
# speedup over the interpreter is gated at 5x (measured ~60x on fib) so
# the gate stays robust on loaded shared machines. The run is repeated
# three times and the best ratio is taken: shared-host
# load spikes hit the small stencil numbers far harder than the large O2
# ones, so a single noisy run under-reports the ratio.
for i in 1 2 3; do
    go run ./cmd/wolfbench -warmup -warmup-out "$tmp/warmup$i.json" >/dev/null
done
python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]
backend = total = steady = 0.0
for i in (1, 2, 3):
    d = json.load(open(f"{tmp}/warmup{i}.json"))
    backend = max(backend, d["compile_backend_ratio_o2_over_stencil"])
    total = max(total, d["compile_total_ratio_o2_over_stencil"])
    by = {m["mode"]: m["steady_ns"] for m in d["modes"]}
    steady = max(steady, by["interpreter"] / by["stencil"])
print(f"stencil compile: backend {backend:.1f}x, total {total:.1f}x faster than the O2 pipeline")
if backend < 2.5:
    sys.exit(f"verify: FAIL — stencil backend compile ratio {backend:.1f}x < 2.5x")
print(f"stencil steady state: {steady:.1f}x faster than the interpreter")
if steady < 5:
    sys.exit(f"verify: FAIL — stencil steady state only {steady:.1f}x over the interpreter")
EOF

echo "== obs gate: /metrics endpoint + trace stream smoke test =="
go run ./cmd/wolfbench -metrics-selftest

echo "== obs gate: observability overhead on scalarloop (>2% fails) =="
# The observability layer must be free when nobody is watching. The host's
# absolute wall-clock drifts more than 2% between runs (see EXPERIMENTS.md),
# so the budget is enforced drift-immune: one process interleaves scalarloop
# with metrics disabled and enabled; the ratio cancels machine speed, and
# the disabled path is a strict subset of the enabled path, so the bound
# covers both. A failure means per-iteration instrumentation leaked into
# the default build. A real leak is systematic — it fails every run — so
# the gate retries up to three times to ride out load spikes that even
# the interleaving cannot cancel (measured up to ±5% on the shared host).
ok=0
for i in 1 2 3; do
    if go run ./cmd/wolfbench -obs-overhead -threshold 0.02; then
        ok=1
        break
    fi
    echo "obs-overhead: noisy run $i, retrying"
done
if [ "$ok" != 1 ]; then
    echo "verify: FAIL — obs overhead gate failed 3/3 runs"
    exit 1
fi

echo "== obs gate: request-tracing overhead on the serve path (armed >2% fails) =="
# ISSUE 9: arming the span pipeline (capture on, sampling 0) must cost a
# production request essentially nothing — every request mints and threads
# a span but every emission site sees a suppressed one and skips. Same
# drift-immune interleaved A/B and retry discipline as the obs gate above.
ok=0
for i in 1 2 3; do
    if go run ./cmd/wolfbench -serve-trace-overhead -threshold 0.02; then
        ok=1
        break
    fi
    echo "serve-trace-overhead: noisy run $i, retrying"
done
if [ "$ok" != 1 ]; then
    echo "verify: FAIL — serve trace-overhead gate failed 3/3 runs"
    exit 1
fi

echo "== artifact gate: cold vs warm start (warm total compile <1.2x fails) =="
# The persistent artifact store (ROADMAP item 4) must make warm starts —
# a new process over a populated store — skip the pipeline's front half.
# The bound was 5x while a cold compile of the corpus took 13 ms against a
# warm 1.3 ms (8-10x measured); ISSUE 18 brought the cold side to 3 ms, the
# ratio reads 2.2-2.5x, and the bound is half of that: a warm start must
# still beat compiling.
# Best-of-3 with a fresh store each round filters shared-host load spikes;
# every warm compile must hit the disk tier and reproduce the cold result
# bit for bit.
for i in 1 2 3; do
    rm -rf "$tmp/artifacts"
    go run ./cmd/wolfbench -coldstart -artifact-dir "$tmp/artifacts" \
        -coldstart-out "$tmp/coldstart$i.json" >/dev/null || {
        echo "verify: FAIL — coldstart suite errored"
        exit 1
    }
done
python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]
speedup = 0.0
for i in (1, 2, 3):
    d = json.load(open(f"{tmp}/coldstart{i}.json"))
    if not d["all_outputs_match"]:
        sys.exit("verify: FAIL — warm-start outputs diverged from cold compiles")
    if not all(r["warm_artifact_hit"] for r in d["rows"]):
        sys.exit("verify: FAIL — a warm compile missed the artifact store")
    speedup = max(speedup, d["warm_compile_speedup"])
print(f"cold/warm total compile speedup: {speedup:.1f}x (gate 1.2x)")
if speedup < 1.2:
    sys.exit(f"verify: FAIL — warm start only {speedup:.1f}x faster than cold")
EOF

echo "== artifact gate: truncated store entry is a clean miss =="
# Corrupt one entry in the populated store (dd truncation mid-header) and
# re-run: the store must detect it by checksum/length, drop it, recompile,
# and still produce matching outputs — never crash.
wca="$(ls "$tmp/artifacts"/*.wca | head -1)"
dd if=/dev/null of="$wca" bs=1 seek=40 2>/dev/null
go run ./cmd/wolfbench -coldstart -artifact-dir "$tmp/artifacts" \
    -coldstart-out "$tmp/coldstart-corrupt.json" >/dev/null || {
    echo "verify: FAIL — coldstart crashed on a truncated store entry"
    exit 1
}
python3 - "$tmp" <<'EOF'
import json, sys
d = json.load(open(f"{sys.argv[1]}/coldstart-corrupt.json"))
if not d["all_outputs_match"]:
    sys.exit("verify: FAIL — corrupt-store rerun diverged")
if d["artifact_store"]["corrupt_drops"] < 1:
    sys.exit("verify: FAIL — truncated entry was not detected and dropped")
print("truncated entry dropped and recompiled; outputs identical")
EOF
echo "== fnreg gate: no package-level mutable registry state outside the default instance =="
# ISSUE 8 made the function registry instance-scoped (*fnreg.Registry);
# ISSUE 10 retired the deprecated package-level wrapper API, so the only
# sanctioned package-level state in the whole package is the Default()
# instance pair (defaultOnce/defaultReg) in default.go. The gate extracts
# every package-level var and allows only that pair plus obs counter
# handles (process-wide aggregate counters, not registry state). ISSUE 15
# scoped the CompiledCodeFunction object table to the kernel installation the
# same way (a process-wide one leaked every session and let one tenant apply
# another's code by id), so internal/core/install.go is held to the same rule
# with no exception.
awk '
    FNR == 1 { inblock = 0 }
    /^var \(/ { inblock = 1; next }
    inblock && /^\)/ { inblock = 0; next }
    inblock  { print FILENAME ": " $0; next }
    /^var /  { print FILENAME ": " $0 }
' $(ls internal/fnreg/*.go | grep -v -e _test.go) internal/core/install.go \
    | grep -v -e 'obs.NewCounter(' -e ': *//' -e ': *$' \
        -e 'default.go: .*defaultOnce' -e 'default.go: .*defaultReg' \
        > "$tmp/fnreg-vars" || true
if [ -s "$tmp/fnreg-vars" ]; then
    echo "verify: FAIL — package-level mutable state in fnreg or core/install.go beyond the default instance:"
    cat "$tmp/fnreg-vars"
    exit 1
fi
# The wrapper API must stay retired: Default() is the only package-level
# function touching the default instance.
if grep -n '^func \(Reserve\|Install\|Upgrade\|Lookup\|Retire\|RetireEntry\|Names\|Reset\)(' \
    internal/fnreg/*.go; then
    echo "verify: FAIL — deprecated package-level fnreg wrappers reintroduced"
    exit 1
fi
echo "fnreg and core/install.go state is instance-scoped (Default() instance only)"

echo "== serve gate: wolfserve end-to-end smoke (create / eval / isolate / destroy) =="
# The multi-tenant server (ISSUE 8): boot the real binary, drive two
# sessions through colliding definitions over HTTP, require isolation, a
# deadline abort, serve counters on /metrics, and a clean destroy.
go build -o "$tmp/wolfserve" ./cmd/wolfserve
"$tmp/wolfserve" -addr 127.0.0.1:17893 -autocompile-threshold 2 \
    2> "$tmp/wolfserve.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
python3 - <<'EOF' || { echo "verify: FAIL — wolfserve smoke"; cat "$tmp/wolfserve.log"; exit 1; }
import json, time, urllib.request, urllib.error

base = "http://127.0.0.1:17893"
def req(method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    r = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(r, timeout=30) as resp:
        raw = resp.read()
        return resp.status, json.loads(raw) if raw.strip() else {}

for i in range(100):
    try:
        urllib.request.urlopen(base + "/healthz", timeout=2); break
    except Exception:
        time.sleep(0.1)
else:
    raise SystemExit("wolfserve never became healthy")

a = req("POST", "/v1/sessions")[1]["id"]
b = req("POST", "/v1/sessions")[1]["id"]
req("POST", f"/v1/sessions/{a}/eval", {"input": "f[n_] := n + 1"})
req("POST", f"/v1/sessions/{b}/eval", {"input": "f[n_] := n * 10"})
va = req("POST", f"/v1/sessions/{a}/eval", {"input": "f[5]"})[1]["value"]
vb = req("POST", f"/v1/sessions/{b}/eval", {"input": "f[5]"})[1]["value"]
if (va, vb) != ("6", "50"):
    raise SystemExit(f"session isolation broken: f[5] = {va!r}, {vb!r}")

st, body = req("POST", f"/v1/sessions/{a}/eval",
               {"input": "While[True, 1]", "timeout_ms": 200})
if not body.get("timed_out") or body.get("value") != "$Aborted":
    raise SystemExit(f"deadline abort failed: {body}")

with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
    metrics = resp.read().decode()
for want in ("wolfc_serve_evals", "wolfc_serve_sessions_created"):
    if want not in metrics:
        raise SystemExit(f"/metrics missing {want}")

req("DELETE", f"/v1/sessions/{a}")
try:
    req("POST", f"/v1/sessions/{a}/eval", {"input": "1"})
    raise SystemExit("eval on a destroyed session did not 404")
except urllib.error.HTTPError as e:
    if e.code != 404:
        raise SystemExit(f"destroyed session answered {e.code}, want 404")
print("wolfserve smoke: isolation, deadline abort, metrics, destroy all OK")
EOF
kill "$serve_pid" 2>/dev/null
trap 'rm -rf "$tmp"' EXIT

echo "== serve gate: request tracing end-to-end (serve→compile span tree on /debug/traces) =="
# ISSUE 9: a single eval that trips background tier promotion must show up
# on /debug/traces as one trace tree — a serve root plus a compile span
# whose parent_id is the root's span_id and whose engine label is the
# session — and /metrics must carry the per-engine latency histogram.
"$tmp/wolfserve" -addr 127.0.0.1:17894 -autocompile-threshold 2 \
    2> "$tmp/wolfserve-trace.log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT
python3 - <<'EOF' || { echo "verify: FAIL — tracing smoke"; cat "$tmp/wolfserve-trace.log"; exit 1; }
import json, time, urllib.request

base = "http://127.0.0.1:17894"
def req(method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    r = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(r, timeout=30) as resp:
        raw = resp.read()
        return resp.status, json.loads(raw) if raw.strip() else {}

for i in range(100):
    try:
        urllib.request.urlopen(base + "/healthz", timeout=2); break
    except Exception:
        time.sleep(0.1)
else:
    raise SystemExit("wolfserve never became healthy")

sid = req("POST", "/v1/sessions")[1]["id"]
req("POST", f"/v1/sessions/{sid}/eval", {"input": "f[n_] := n*n*n"})
for _ in range(3):
    req("POST", f"/v1/sessions/{sid}/eval", {"input": "f[4]"})

# The tier compile is asynchronous: poll for the linked tree.
deadline = time.time() + 10
linked = False
while time.time() < deadline and not linked:
    with urllib.request.urlopen(base + "/debug/traces", timeout=10) as resp:
        doc = json.loads(resp.read())
    for tr in doc.get("traces", []):
        evs = tr["events"]
        roots = [e for e in evs if e["type"] == "serve" and e["name"] == sid]
        for root in roots:
            for e in evs:
                if e["type"] == "compile" and e.get("parent_id") == root["span_id"]:
                    if e["trace_id"] != root["trace_id"]:
                        raise SystemExit("compile span left the request trace")
                    if e.get("engine") != sid:
                        raise SystemExit(f"compile span engine {e.get('engine')!r}, want {sid!r}")
                    linked = True
    if not linked:
        time.sleep(0.1)
if not linked:
    raise SystemExit("no serve→compile span tree on /debug/traces")

# Chrome export parses and carries events.
with urllib.request.urlopen(base + "/debug/traces?format=chrome", timeout=10) as resp:
    chrome = json.loads(resp.read())
if not chrome.get("traceEvents"):
    raise SystemExit("chrome export empty")

with urllib.request.urlopen(base + "/metrics", timeout=10) as resp:
    metrics = resp.read().decode()
want = f'wolfc_serve_eval_latency_ns_bucket{{engine="{sid}"'
if want not in metrics:
    raise SystemExit(f"/metrics missing per-engine latency histogram {want}")
print("tracing smoke: linked serve→compile tree, chrome export, per-engine histogram all OK")
EOF
kill "$serve_pid" 2>/dev/null
trap 'rm -rf "$tmp"' EXIT

echo "== serve gate: shared-cache aggregate throughput at 8 sessions (>=2x over 1 fails) =="
# Sessions are isolated namespaces, so the in-memory compile-cache front
# cannot be shared; the registry-free stable-key artifact tier is, and it
# must carry the multi-tenant win: 8 sessions' compile sets cost one cold
# set plus seven warm loads. Best-of-3 filters shared-host load spikes.
ratio=0
for i in 1 2 3; do
    go run ./cmd/wolfbench -serve -serve-out "$tmp/serve$i.json" >/dev/null || {
        echo "verify: FAIL — serve load suite errored"
        exit 1
    }
done
python3 - "$tmp" <<'EOF'
import json, sys
tmp = sys.argv[1]
ratio = 0.0
for i in (1, 2, 3):
    d = json.load(open(f"{tmp}/serve{i}.json"))
    ratio = max(ratio, d.get("ratio_peak_vs_1", 0.0))
    for row in d["rows"]:
        if row["sessions"] > 1 and row["artifact_hit_rate"] <= 0:
            sys.exit("verify: FAIL — multi-session run never hit the shared artifact tier")
print(f"aggregate throughput at 8 sessions vs 1: {ratio:.2f}x (gate 2x)")
if ratio < 2:
    sys.exit(f"verify: FAIL — shared-cache serving win only {ratio:.2f}x")
EOF

size_report
echo "verify: OK"
