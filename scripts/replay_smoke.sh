#!/usr/bin/env bash
# Replay smoke: end-to-end exercise of the aequitas-replay toolchain —
#   1. two traced runs audited and diffed with `analyze` (compare mode),
#   2. the in-harness self-audit path (`aequitas-sim run ... --audit`),
#   3. schema-version enforcement: a tampered header must be rejected,
#   4. usage errors: an unknown flag, a flag without a value and an
#      overflowing --period-us each exit 2 with a message saying so.
#
# Usage: scripts/replay_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
RUNS="$OUT/runs"
ANALYSIS="$OUT/analysis"
mkdir -p "$RUNS"

echo "== build (release) =="
cargo build -q --release --offline -p aequitas-experiments -p aequitas-replay

echo "== two traced runs =="
target/release/aequitas-sim run trace-demo --trace "$RUNS/demo-a.jsonl" >/dev/null
target/release/aequitas-sim run trace-demo --trace "$RUNS/demo-b.jsonl" >/dev/null

echo "== cross-run analyze =="
target/release/aequitas-replay analyze --input "$RUNS" --out "$ANALYSIS" > "$OUT/analyze.txt"
for f in compare.txt compare.json demo-a.audit.json demo-b.audit.json; do
    [ -s "$ANALYSIS/$f" ] || { echo "FAIL: analyze did not write $f" >&2; exit 1; }
done
grep -q 'baseline' "$OUT/analyze.txt" \
    || { echo "FAIL: analyze output names no baseline" >&2; exit 1; }
grep -q 'p99.9' "$ANALYSIS/compare.txt" \
    || { echo "FAIL: compare report lacks RNL quantile sketch" >&2; exit 1; }

echo "== self-audit (--audit) =="
target/release/aequitas-sim run trace-demo --trace "$OUT/audited.jsonl" --audit \
    > "$OUT/audited.txt"
grep -q 'verdict=PASS' "$OUT/audited.txt" \
    || { echo "FAIL: self-audit did not report a PASS verdict" >&2; exit 1; }

echo "== schema-version enforcement =="
sed '1s/"schema_version":[0-9]*/"schema_version":999/' "$RUNS/demo-a.jsonl" \
    > "$OUT/future.jsonl"
if target/release/aequitas-replay replay --trace "$OUT/future.jsonl" \
    > "$OUT/future.txt" 2>&1; then
    echo "FAIL: replay accepted schema version 999" >&2
    exit 1
fi
grep -qi 'schema' "$OUT/future.txt" \
    || { echo "FAIL: rejection does not mention the schema" >&2; exit 1; }

echo "== usage errors =="
# Run aequitas-replay with the remaining arguments; it must exit 2 and its
# stderr must match the first.
expect_usage_error() {
    local want="$1"
    shift
    local code=0
    target/release/aequitas-replay "$@" > "$OUT/usage.out" 2> "$OUT/usage.err" || code=$?
    [ "$code" = 2 ] \
        || { echo "FAIL: aequitas-replay $* exited $code, not 2" >&2; exit 1; }
    grep -q -- "$want" "$OUT/usage.err" \
        || { echo "FAIL: aequitas-replay $* did not say '$want'" >&2; exit 1; }
}
expect_usage_error "unknown flag '--bound_tol'" audit --trace "$RUNS/demo-a.jsonl" --bound_tol 0.5
expect_usage_error "--json needs a value" audit --trace "$RUNS/demo-a.jsonl" --json
expect_usage_error "--period-us 18446744073710 overflows" \
    audit --trace "$RUNS/demo-a.jsonl" --period-us 18446744073710

echo "replay smoke passed"
