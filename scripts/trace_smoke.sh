#!/usr/bin/env bash
# Trace smoke: run a quick experiment with --trace/--metrics and validate
# the telemetry outputs through `aequitas-replay` — the trace must carry a
# recognized schema header, parse line-by-line, reconstruct with clean
# integrity (contiguous seq, byte conservation), cross-check against the
# sampled metrics CSV, and audit without a FAIL verdict. Also checks the
# front door's `--threads` flag: the worker count never changes what a run
# prints, and a value that is not a positive integer is a usage error.
#
# Usage: scripts/trace_smoke.sh [experiment]   (default: trace-demo — the
# figure experiments simulate enough 100 Gbps traffic that a traced run is
# multi-gigabyte; trace-demo is the same stack at smoke size)
set -euo pipefail
cd "$(dirname "$0")/.."

EXP=${1:-trace-demo}
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
TRACE="$OUT/trace.jsonl"
METRICS="$OUT/metrics.csv"
REPORT="$OUT/report.json"

echo "== build (release) =="
cargo build -q --release --offline -p aequitas-experiments -p aequitas-replay

echo "== run $EXP with tracing =="
target/release/aequitas-sim run "$EXP" --trace "$TRACE" --metrics "$METRICS" >/dev/null

echo "== replay + reconstruct + audit =="
[ -s "$TRACE" ] || { echo "FAIL: trace file empty" >&2; exit 1; }
# `replay` exits non-zero when the header is missing/unknown, the stream
# has parse errors or seq gaps, or the replayed backlog disagrees with the
# metrics CSV gauges; the audit verdict is reported but only `audit` mode
# turns a bound violation into a failing exit.
target/release/aequitas-replay replay --trace "$TRACE" --metrics "$METRICS" --json "$REPORT"

echo "== check replay report =="
[ -s "$REPORT" ] || { echo "FAIL: replay wrote no JSON report" >&2; exit 1; }
for family in pkt_enqueue pkt_dequeue rpc_issue rpc_complete cwnd_update admit_prob; do
    grep -q "\"$family\"" "$REPORT" \
        || { echo "FAIL: no $family events in replay report" >&2; exit 1; }
done
grep -q '"schema_version":' "$REPORT" \
    || { echo "FAIL: replay report lacks schema_version" >&2; exit 1; }

echo "== check metrics =="
[ -s "$METRICS" ] || { echo "FAIL: metrics file empty" >&2; exit 1; }
head -1 "$METRICS" | grep -qx 't_us,metric,labels,value' \
    || { echo "FAIL: bad metrics header: $(head -1 "$METRICS")" >&2; exit 1; }
ROWS=$(($(wc -l < "$METRICS") - 1))
[ "$ROWS" -ge 10 ] || { echo "FAIL: only $ROWS metric samples" >&2; exit 1; }
echo "ok: $ROWS metric samples"

echo "== --threads is a pure wall-clock knob, and validated =="
target/release/aequitas-sim run "$EXP" --threads 1 > "$OUT/threads-1.txt"
target/release/aequitas-sim run "$EXP" --threads 4 > "$OUT/threads-4.txt"
diff "$OUT/threads-1.txt" "$OUT/threads-4.txt" \
    || { echo "FAIL: output depends on --threads" >&2; exit 1; }
for bad in 0 abc; do
    rc=0
    target/release/aequitas-sim run "$EXP" --threads "$bad" >/dev/null 2>"$OUT/err.txt" || rc=$?
    [ "$rc" -eq 2 ] \
        || { echo "FAIL: --threads $bad exited $rc, want usage error 2" >&2; exit 1; }
    grep -q -- "--threads needs a positive integer" "$OUT/err.txt" \
        || { echo "FAIL: no diagnostic for --threads $bad" >&2; cat "$OUT/err.txt" >&2; exit 1; }
done
echo "ok: --threads 1 == --threads 4; --threads 0 / abc exit 2"

echo "trace smoke passed"
