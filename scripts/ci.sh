#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
#   scripts/ci.sh            # run everything
#
# Mirrors what reviewers run before merging; keep it green.
#
# Test phases run under a hard wall-clock timeout (CI_TEST_TIMEOUT
# seconds, default 1800): a verification hang is a bug in the resource
# governor, and the gate must fail loudly instead of wedging the queue.
set -euo pipefail
cd "$(dirname "$0")/.."

CI_TEST_TIMEOUT="${CI_TEST_TIMEOUT:-1800}"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (workspace, no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test (workspace, ${CI_TEST_TIMEOUT}s hard timeout)"
timeout --kill-after=30 "$CI_TEST_TIMEOUT" cargo test -q --workspace

echo "== jobs-identity sweep under fail-fast cancellation"
timeout --kill-after=30 "$CI_TEST_TIMEOUT" \
    env AQED_FAIL_FAST=1 cargo test -q -p aqed-cli --test jobs_identity

echo "== simplification-pipeline identity (CLI, defaults vs --no-preprocess --no-coi)"
# The in-process sweep (pipeline_identity test) already covers the whole
# catalog; this phase additionally pins the *user-visible* contract: the
# aqed binary must report the same exit code and verdict line with the
# pipeline on (default) and fully off.
cargo build --release -q -p aqed-cli
# Extract the verdict line and strip the timing/clause parenthetical,
# which legitimately differs between runs. Must consume ALL of stdin:
# an early-exiting extractor (grep -m1) closes the pipe while aqed is
# still printing ("wrote report JSON to ..."), turning the run into an
# EPIPE io-error exit and racing the phase's rc checks.
verdict() {
    awk '!found && /^(bug:|clean|inconclusive|error)/ { found = 1; line = $0 }
         END { sub(/ \(.*/, "", line); print line }'
}
# The effort gate skips preprocessing on easy runs, so the default runs
# write their report JSON and at least one must show a pass: identity
# over runs that never preprocessed would pin nothing of the pass.
pp_json=$(mktemp)
trap 'rm -f "$pp_json"' EXIT
passed_runs=0
for case in motivating_clock_enable dataflow_fifo_sizing aes_v1; do
    for variant in "" "--healthy"; do
        on_rc=0
        on_out=$(./target/release/aqed verify "$case" $variant --bound 8 \
            --report-json "$pp_json" | verdict) || on_rc=$?
        if grep -qE '"preprocess_runs":[1-9]' "$pp_json"; then
            passed_runs=$((passed_runs + 1))
        fi
        off_rc=0
        off_out=$(./target/release/aqed verify "$case" $variant --bound 8 \
            --no-preprocess --no-coi | verdict) || off_rc=$?
        if [ "$on_rc" != "$off_rc" ] || [ "$on_out" != "$off_out" ]; then
            echo "pipeline identity violated on '$case $variant':" >&2
            echo "  default:        rc=$on_rc  $on_out" >&2
            echo "  pipeline off:   rc=$off_rc  $off_out" >&2
            exit 1
        fi
        echo "  $case $variant: rc=$on_rc verdict '$on_out' identical"
    done
done
rm -f "$pp_json"
trap - EXIT
if [ "$passed_runs" -eq 0 ]; then
    echo "no default run took a preprocessing pass; the identity check is vacuous" >&2
    exit 1
fi
echo "  $passed_runs default run(s) took a preprocessing pass"

echo "== portfolio identity (CLI, --backend portfolio vs cdcl, whole catalog)"
# The portfolio backend races diversified solvers and shares learned
# clauses, but it is still a decision procedure: on every catalog design
# it must report the same exit code and verdict line as the single
# cdcl backend, with sharing on and off.
for case in motivating_clock_enable dataflow_fifo_sizing aes_v1; do
    for variant in "" "--healthy"; do
        cdcl_rc=0
        cdcl_out=$(./target/release/aqed verify "$case" $variant --bound 8 \
            --backend cdcl | verdict) || cdcl_rc=$?
        for extra in "" "--no-clause-sharing"; do
            port_rc=0
            port_out=$(./target/release/aqed verify "$case" $variant --bound 8 \
                --backend portfolio --portfolio-workers 2 $extra | verdict) || port_rc=$?
            if [ "$cdcl_rc" != "$port_rc" ] || [ "$cdcl_out" != "$port_out" ]; then
                echo "portfolio identity violated on '$case $variant $extra':" >&2
                echo "  cdcl:      rc=$cdcl_rc  $cdcl_out" >&2
                echo "  portfolio: rc=$port_rc  $port_out" >&2
                exit 1
            fi
        done
        echo "  $case $variant: rc=$cdcl_rc verdict '$cdcl_out' identical"
    done
done

echo "== observability: traced catalog verify, trace validation, zero-cost-off"
# Every catalog design runs once with tracing + report JSON on; the
# resulting JSONL must pass trace_report's structural validation
# (parseable lines, balanced per-thread spans) and the report JSON must
# be non-empty. The obs_identity test already pins that tracing never
# changes verdicts; this phase pins the shipped binaries end to end.
cargo build --release -q -p aqed-bench --bin trace_report
obs_tmp=$(mktemp -d)
trap 'rm -rf "$obs_tmp"' EXIT
for case in motivating_clock_enable dataflow_fifo_sizing aes_v1; do
    rc=0
    ./target/release/aqed verify "$case" --bound 8 --jobs 4 \
        --trace-out "$obs_tmp/$case.jsonl" \
        --report-json "$obs_tmp/$case.json" >/dev/null || rc=$?
    if [ "$rc" -gt 1 ]; then
        echo "traced verify of '$case' failed with rc=$rc" >&2
        exit 1
    fi
    ./target/release/trace_report "$obs_tmp/$case.jsonl" --check
    if ! [ -s "$obs_tmp/$case.json" ]; then
        echo "empty report JSON for '$case'" >&2
        exit 1
    fi
done
# The portfolio path emits async (b/e) obligation and worker spans that
# cross threads; a traced portfolio run must still pass structural
# validation (balanced spans, paired async begin/end), and an untraced
# portfolio run keeps the obs layer fully disarmed.
rc=0
./target/release/aqed verify dataflow_fifo_sizing --bound 8 \
    --backend portfolio --portfolio-workers 2 \
    --trace-out "$obs_tmp/portfolio.jsonl" >/dev/null || rc=$?
if [ "$rc" -gt 1 ]; then
    echo "traced portfolio verify failed with rc=$rc" >&2
    exit 1
fi
./target/release/trace_report "$obs_tmp/portfolio.jsonl" --check
if ! grep -q '"ph":"b"' "$obs_tmp/portfolio.jsonl"; then
    echo "portfolio trace contains no async spans" >&2
    exit 1
fi
# Tracing off must cost nothing: with no --trace-out/--report-json the
# obs layer is disarmed and must never touch the clock or buffer an
# event. That invariant is asserted structurally (not by flaky timing)
# in the obs crate's disabled_records_nothing_and_reads_no_clock test.
cargo test -q -p aqed-obs disabled_records_nothing_and_reads_no_clock

echo "== aqed-serve: daemon verdict/exit identity with one-shot CLI"
# The service must be a transparent transport: for every probed case the
# daemon-routed run must report the same exit code and verdict line as
# the one-shot CLI, a warm repeat must be served from the artifact
# cache, and a cancelled-mid-flight job must drain through the same
# exit-2 taxonomy as Ctrl-C.
cargo build --release -q -p aqed-serve
serve_pid=""
trap 'rm -rf "$obs_tmp"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true' EXIT
./target/release/aqed-serve serve --workers 2 --port-file "$obs_tmp/port" \
    >"$obs_tmp/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
    [ -s "$obs_tmp/port" ] && break
    sleep 0.1
done
addr=$(cat "$obs_tmp/port")
for case in motivating_clock_enable dataflow_fifo_sizing aes_v1; do
    cli_rc=0
    cli_out=$(./target/release/aqed verify "$case" --bound 8 | verdict) || cli_rc=$?
    srv_rc=0
    srv_out=$(./target/release/aqed-serve submit --addr "$addr" "$case" --bound 8 \
        | verdict) || srv_rc=$?
    if [ "$cli_rc" != "$srv_rc" ] || [ "$cli_out" != "$srv_out" ]; then
        echo "serve identity violated on '$case':" >&2
        echo "  one-shot: rc=$cli_rc  $cli_out" >&2
        echo "  served:   rc=$srv_rc  $srv_out" >&2
        exit 1
    fi
    echo "  $case: rc=$cli_rc verdict '$cli_out' identical"
done
# Warm repeat: the second daemon run of a case must be answered from the
# cross-request artifact cache (cache_hits > 0 in the job.done event).
warm_hits=$(./target/release/aqed-serve submit --addr "$addr" \
    dataflow_fifo_sizing --bound 8 --events \
    | grep -m1 '"name":"job.done"' \
    | grep -o '"cache_hits":[0-9]*' | head -1 | cut -d: -f2)
if [ -z "$warm_hits" ] || [ "$warm_hits" -eq 0 ]; then
    echo "warm repeat was not served from the artifact cache" >&2
    exit 1
fi
echo "  warm repeat served from cache ($warm_hits obligation hits)"
# Cancellation: a slow healthy run cancelled mid-flight must exit 2
# with a cancelled-inconclusive verdict, like Ctrl-C on the CLI.
cancel_rc=0
cancel_out=$(./target/release/aqed-serve submit --addr "$addr" aes_v1 \
    --healthy --bound 8 --timeout-secs 120 --cancel-after-ms 500) || cancel_rc=$?
if [ "$cancel_rc" != 2 ] || ! echo "$cancel_out" | grep -q 'cancelled'; then
    echo "cancelled job did not drain through exit 2 (rc=$cancel_rc): $cancel_out" >&2
    exit 1
fi
echo "  cancelled-mid-flight job drained with rc=2"
./target/release/aqed-serve shutdown --addr "$addr" >/dev/null
wait "$serve_pid"
serve_pid=""

echo "== durability: kill -9, restart, warm identity from the recovered store"
# The daemon must survive the harshest crash (SIGKILL — no drain, no
# flush handler) without losing completed verdicts: a restart on the
# same --store-dir must recover the journal, report it via `health`,
# and answer re-submitted cases from the store with verdicts identical
# to the pre-kill runs.
store_dir="$obs_tmp/store"
json_field() { # json_field NAME < json-on-stdin -> bare integer
    grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2
}
start_daemon() { # start_daemon [extra aqed-serve flags...]
    rm -f "$obs_tmp/port"
    ./target/release/aqed-serve serve --workers 2 --store-dir "$store_dir" \
        --flush-ms 50 --port-file "$obs_tmp/port" "$@" \
        >>"$obs_tmp/serve.log" 2>&1 &
    serve_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$obs_tmp/port" ] && break
        sleep 0.1
    done
    addr=$(cat "$obs_tmp/port")
}
start_daemon
cold_rcs=""
cold_outs=""
for case in motivating_clock_enable dataflow_fifo_sizing; do
    rc=0
    out=$(./target/release/aqed-serve submit --addr "$addr" "$case" --bound 8 \
        | verdict) || rc=$?
    cold_rcs="$cold_rcs $rc"
    cold_outs="$cold_outs|$out"
done
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
start_daemon
health=$(./target/release/aqed-serve health --addr "$addr")
recovered=$(echo "$health" | json_field recovered)
truncated=$(echo "$health" | json_field truncated)
if [ -z "$recovered" ] || [ "$recovered" -eq 0 ]; then
    echo "restart after kill -9 recovered no records: $health" >&2
    exit 1
fi
if [ "$truncated" != "0" ]; then
    echo "flushed journal must recover without damage: $health" >&2
    exit 1
fi
echo "  restart recovered $recovered records, 0 truncated"
warm_rcs=""
warm_outs=""
for case in motivating_clock_enable dataflow_fifo_sizing; do
    rc=0
    out=$(./target/release/aqed-serve submit --addr "$addr" "$case" --bound 8 \
        --retries 5 | verdict) || rc=$?
    warm_rcs="$warm_rcs $rc"
    warm_outs="$warm_outs|$out"
done
if [ "$cold_rcs" != "$warm_rcs" ] || [ "$cold_outs" != "$warm_outs" ]; then
    echo "warm-after-kill verdicts diverged from pre-kill runs:" >&2
    echo "  pre-kill:  rcs=$cold_rcs  $cold_outs" >&2
    echo "  post-kill: rcs=$warm_rcs  $warm_outs" >&2
    exit 1
fi
health=$(./target/release/aqed-serve health --addr "$addr")
hits=$(echo "$health" | json_field cone_hits)
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    echo "post-kill re-submits were not served from the store: $health" >&2
    exit 1
fi
echo "  post-kill verdicts identical, $hits obligation hits from the store"
./target/release/aqed-serve shutdown --addr "$addr" >/dev/null
wait "$serve_pid"
serve_pid=""

echo "== durability: corrupted-store (bit-flip) recovery"
# Flip one bit mid-journal: the next open must truncate the damaged
# tail (reported as truncated > 0 in health), keep serving, and still
# agree with the pre-corruption verdicts — missing facts are re-solved,
# never guessed.
journal="$store_dir/journal.aqed"
if ! [ -s "$journal" ]; then
    echo "expected a journal at $journal after the kill-restart phase" >&2
    exit 1
fi
python3 - "$journal" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x40
open(path, "wb").write(bytes(data))
EOF
start_daemon
health=$(./target/release/aqed-serve health --addr "$addr")
truncated=$(echo "$health" | json_field truncated)
if [ -z "$truncated" ] || [ "$truncated" -eq 0 ]; then
    echo "bit-flipped journal must report truncated records: $health" >&2
    exit 1
fi
echo "  corrupted open truncated $truncated damaged records and kept serving"
post_rcs=""
post_outs=""
for case in motivating_clock_enable dataflow_fifo_sizing; do
    rc=0
    out=$(./target/release/aqed-serve submit --addr "$addr" "$case" --bound 8 \
        --retries 5 | verdict) || rc=$?
    post_rcs="$post_rcs $rc"
    post_outs="$post_outs|$out"
done
if [ "$cold_rcs" != "$post_rcs" ] || [ "$cold_outs" != "$post_outs" ]; then
    echo "post-corruption verdicts diverged:" >&2
    echo "  pre-corruption:  rcs=$cold_rcs  $cold_outs" >&2
    echo "  post-corruption: rcs=$post_rcs  $post_outs" >&2
    exit 1
fi
echo "  post-corruption verdicts identical to the pre-kill runs"
./target/release/aqed-serve shutdown --addr "$addr" >/dev/null
wait "$serve_pid"
serve_pid=""

echo "== warm-start: re-verify after a one-constant edit (CI mode)"
# The incremental loop end-to-end: verify a suite cold into a store,
# apply a one-constant edit to one design, re-verify warm. The bench
# binary asserts verdict identity between every warm phase and the
# cold run internally; the gate additionally pins that obligations
# whose cones the edit missed were actually reused, not re-solved.
cargo build --release -q -p aqed-bench --bin bench_reverify
ws_out=$(AQED_SUITE="dataflow_fifo_sizing,optflow_pushpop" AQED_BENCH_DIR="$obs_tmp" \
    ./target/release/bench_reverify dataflow_fifo_sizing 6 1)
echo "$ws_out" | grep -q "verdict identity: OK" || {
    echo "bench_reverify did not confirm verdict identity:" >&2
    echo "$ws_out" >&2
    exit 1
}
echo "$ws_out" | grep -qE "reused [1-9][0-9]* verdict" || {
    echo "edited design reused no cone-keyed verdicts:" >&2
    echo "$ws_out" >&2
    exit 1
}
echo "  warm-after-edit verdicts identical; untouched cones reused"
# CLI deepening reuse: clean@8 in the store lets the bound-12 re-run
# skip the proven prefix (verdicts_reused > 0 in the report JSON)
# while agreeing with a cold bound-12 run.
ws_store="$obs_tmp/ws-store"
deep_cold_rc=0
deep_cold=$(./target/release/aqed verify dataflow_fifo_sizing --healthy \
    --bound 12 | verdict) || deep_cold_rc=$?
./target/release/aqed verify dataflow_fifo_sizing --healthy --bound 8 \
    --store-dir "$ws_store" >/dev/null
deep_warm_rc=0
deep_warm=$(./target/release/aqed verify dataflow_fifo_sizing --healthy \
    --bound 12 --store-dir "$ws_store" \
    --report-json "$obs_tmp/ws-report.json" | verdict) || deep_warm_rc=$?
if [ "$deep_cold_rc" != "$deep_warm_rc" ] || [ "$deep_cold" != "$deep_warm" ]; then
    echo "deepening re-verify diverged from cold:" >&2
    echo "  cold: rc=$deep_cold_rc  $deep_cold" >&2
    echo "  warm: rc=$deep_warm_rc  $deep_warm" >&2
    exit 1
fi
grep -qE '"verdicts_reused":[1-9]' "$obs_tmp/ws-report.json" || {
    echo "bound-12 re-run did not reuse the bound-8 proven prefix:" >&2
    cat "$obs_tmp/ws-report.json" >&2
    exit 1
}
echo "  deepening 8 -> 12: verdict '$deep_warm' identical, proven prefix reused"

echo "== warm-start: corrupted verdict record falls back to cold"
# Damage the first clean-verdict record specifically: the checksummed
# journal truncates at the corruption, the fact is lost, and the
# re-verify must quietly re-solve — identical verdict, never a crash
# or a stale answer.
vc_store="$obs_tmp/vc-store"
vc_cold_rc=0
vc_cold=$(./target/release/aqed verify dataflow_fifo_sizing --bound 16 \
    --store-dir "$vc_store" | verdict) || vc_cold_rc=$?
grep -q '"k":"cclean"' "$vc_store/journal.aqed" || {
    echo "cold run journaled no clean verdict at $vc_store/journal.aqed" >&2
    exit 1
}
python3 - "$vc_store/journal.aqed" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
pos = data.find(b'"k":"cclean"')
assert pos >= 0, "no cclean record to corrupt"
data[pos + 6] = ord("X")
open(path, "wb").write(bytes(data))
EOF
vc_warm_rc=0
vc_warm=$(./target/release/aqed verify dataflow_fifo_sizing --bound 16 \
    --store-dir "$vc_store" | verdict) || vc_warm_rc=$?
if [ "$vc_cold_rc" != "$vc_warm_rc" ] || [ "$vc_cold" != "$vc_warm" ]; then
    echo "corrupted verdict record changed the verdict:" >&2
    echo "  cold:           rc=$vc_cold_rc  $vc_cold" >&2
    echo "  post-corruption: rc=$vc_warm_rc  $vc_warm" >&2
    exit 1
fi
echo "  corrupted verdict record discarded; verdict '$vc_warm' unchanged"

echo "== observability plane: stats scrape, monotone counters, postmortem bundle"
# A live daemon must serve a well-formed Prometheus exposition whose
# counters are monotone across scrapes, and a worker death must leave a
# postmortem bundle under --store-dir/postmortem/ that trace_report can
# open and validate.
store_dir="$obs_tmp/obs-store"
start_daemon --chaos-panic-case motivating_clock_enable
./target/release/aqed-serve submit --addr "$addr" dataflow_fifo_sizing \
    --bound 6 >/dev/null
scrape1=$(./target/release/aqed-serve stats --addr "$addr")
bad_lines=$(echo "$scrape1" | grep -v '^#' \
    | grep -cvE '^aqed_[a-zA-Z0-9_]+(\{[^{}]*\})? (-?[0-9][0-9.eE+-]*|\+Inf)$' \
    || true)
if [ "$bad_lines" != "0" ]; then
    echo "malformed Prometheus exposition ($bad_lines bad lines):" >&2
    echo "$scrape1" | grep -v '^#' \
        | grep -vE '^aqed_[a-zA-Z0-9_]+(\{[^{}]*\})? (-?[0-9][0-9.eE+-]*|\+Inf)$' >&2
    exit 1
fi
./target/release/aqed-serve submit --addr "$addr" dataflow_fifo_sizing \
    --healthy --bound 6 >/dev/null
scrape2=$(./target/release/aqed-serve stats --addr "$addr")
done1=$(echo "$scrape1" | grep '^aqed_serve_jobs_completed_total ' | awk '{print $2}')
done2=$(echo "$scrape2" | grep '^aqed_serve_jobs_completed_total ' | awk '{print $2}')
if [ -z "$done1" ] || [ -z "$done2" ] \
    || [ "${done1%%.*}" -lt 1 ] || [ "${done2%%.*}" -lt "${done1%%.*}" ]; then
    echo "jobs_completed_total not monotone across scrapes: '$done1' -> '$done2'" >&2
    exit 1
fi
echo "  exposition well-formed; jobs_completed_total $done1 -> $done2 monotone"
# Kill a worker mid-job via the chaos hook; the supervisor must write a
# worker-died postmortem bundle that trace_report validates.
chaos_rc=0
./target/release/aqed-serve submit --addr "$addr" motivating_clock_enable \
    >/dev/null 2>&1 || chaos_rc=$?
if [ "$chaos_rc" != 2 ]; then
    echo "chaos-panic job must fail with rc=2, got rc=$chaos_rc" >&2
    exit 1
fi
bundle=""
for _ in $(seq 1 50); do
    bundle=$(ls "$store_dir"/postmortem/*worker-died*.json 2>/dev/null | head -1)
    [ -n "$bundle" ] && break
    sleep 0.1
done
if [ -z "$bundle" ]; then
    echo "no worker-died postmortem bundle under $store_dir/postmortem" >&2
    ls -la "$store_dir/postmortem" 2>&1 >&2 || true
    exit 1
fi
./target/release/trace_report --postmortem "$bundle" --check
echo "  postmortem bundle $(basename "$bundle") validated by trace_report"
./target/release/aqed-serve shutdown --addr "$addr" >/dev/null
wait "$serve_pid"
serve_pid=""

echo "== benchmark smoke: aqedbench builds and every workload runs clean"
# aqedbench is a separate package that links the engine crates by path
# and builds some of their public structs by literal, so a program
# change can break it without any other phase noticing. Each workload
# runs on tiny inputs; its last stdout line is the result JSON, which
# must report every verdict correct and no failed request.
for workload in bughunt ci-reverify served-warm; do
    result=$(bash aqedbench/run.sh --workload "$workload" --seed 1 --smoke | tail -n 1)
    if ! echo "$result" | grep -q '"correct":true' \
        || ! echo "$result" | grep -q '"failed":0[,}]'; then
        echo "benchmark smoke of '$workload' failed: $result" >&2
        exit 1
    fi
    echo "  $workload: correct, 0 failed"
done

echo "CI OK"
