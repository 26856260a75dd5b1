#!/usr/bin/env bash
# Bench regression gate: re-run the hot-path microbenches and compare each
# median against the newest committed BENCH_<n>.json at the repo root
# (the per-PR snapshots written by scripts/perf_smoke.sh). Any ns/iter
# key that regresses by more than BENCH_GATE_TOLERANCE (default 15%)
# fails the gate.
#
# Only the microbench keys are gated. The wall-clock sweep timings in the
# snapshots (fig14_sweep_*, fleet_quick_*) are recorded for the perf
# trajectory but not gated: they depend on core count and machine load,
# so they are not comparable across environments.
#
# Usage: scripts/bench_gate.sh
# Env:   BENCH_GATE_TOLERANCE  allowed regression fraction (default 0.15).

set -euo pipefail
cd "$(dirname "$0")/.."

TOL=${BENCH_GATE_TOLERANCE:-0.15}

BASE=$({ ls BENCH_*.json 2>/dev/null || true; } \
    | sed -n 's/^BENCH_\([0-9]\{1,\}\)\.json$/\1/p' | sort -n | tail -1)
if [ -z "$BASE" ]; then
    echo "bench gate: no committed BENCH_*.json baseline; skipping"
    exit 0
fi
BASE_FILE="BENCH_$BASE.json"
echo "bench gate: baseline $BASE_FILE, tolerance ${TOL}"

echo "== hot-path microbenches =="
# No filter: the vendored criterion shim takes at most one substring
# filter, and the gate compares several groups; the full micro suite is
# cheap. tee -a: plain tee truncates when stderr is a redirected file.
BENCH_OUT=$(cargo bench --offline -p aequitas-bench --bench micro \
    2>&1 | tee -a /dev/stderr | grep '^bench ')

# Parse "bench <name>  median <x> ns/iter ..." from the run, and
# '"<key>": <x>,' from the baseline snapshot.
median_ns() {
    echo "$BENCH_OUT" | { grep -F "bench $1 " || true; } \
        | sed -n 's/.*median \([0-9.]*\) ns\/iter.*/\1/p' | head -1
}
baseline_ns() {
    sed -n "s/.*\"$1\": \([0-9.]*\).*/\1/p" "$BASE_FILE" | head -1
}

# key-in-snapshot : bench name
GATED=(
    "event_queue_hold64_heap_ns_per_op:event_queue_hold64/heap"
    "event_queue_hold64_calendar_ns_per_op:event_queue_hold64/calendar"
    "event_queue_hold_dense_calendar_ns_per_op:event_queue_hold_dense/calendar"
    "engine_rpc_8host_100us_slice_ns:engine_run/rpc_8host_100us_slice"
    "arena_slab_churn32_ns_per_op:arena/slab_churn32"
    "arena_box_churn_baseline_ns_per_op:arena/box_churn_baseline"
    "sharded_clos3dom_100us_slice_ns:sharded_engine/clos3dom_100us_slice_1thread"
    "metrics_counter_string_keyed_ns_per_op:metrics_registry/counter_add_string_keyed"
    "metrics_counter_interned_handle_opaque_ns_per_op:metrics_registry/counter_add_interned_handle_opaque"
    "fib_route_nested_vec_ns_per_op:forwarding/route_nested_vec"
    "fib_lookup_flat_ns_per_op:forwarding/fib_lookup_flat"
    "quota_allocate64_dense_ns:quota_allocate_64t/dense"
    "quota_allocate64_hashmap_ref_ns:quota_allocate_64t/hashmap_reference"
)

FAIL=0
for entry in "${GATED[@]}"; do
    key=${entry%%:*}
    name=${entry#*:}
    base=$(baseline_ns "$key")
    cur=$(median_ns "$name")
    if [ -z "$base" ]; then
        echo "  $key: no baseline value (new bench); skipping"
        continue
    fi
    if [ -z "$cur" ]; then
        # A baseline key whose bench no longer exists in this tree: the
        # bench was renamed or retired alongside the snapshot that will
        # replace this baseline. Benches are append-mostly, so a silent
        # perf loss cannot hide here — the surviving keys still gate.
        echo "  $key: bench '$name' not in this run (renamed/removed); skipping"
        continue
    fi
    verdict=$(echo "$cur $base $TOL" | awk '{
        limit = $2 * (1 + $3);
        # Absolute floor of 1 ns of slack: sub-nanosecond medians (e.g. the
        # interned-handle counter update) jitter by timer granularity, and a
        # purely relative tolerance turns a 0.3 ns wobble into a fake
        # regression.
        if (limit < $2 + 1.0) limit = $2 + 1.0;
        ratio = ($2 > 0) ? $1 / $2 : 1;
        printf "%s %.2f %.1f", ($1 > limit) ? "REGRESSED" : "ok", ratio, limit;
    }')
    status=${verdict%% *}
    rest=${verdict#* }
    ratio=${rest%% *}
    limit=${rest#* }
    echo "  $key: ${cur} ns vs baseline ${base} ns (${ratio}x, limit ${limit}) $status"
    if [ "$status" = "REGRESSED" ]; then
        FAIL=1
    fi
done

if [ "$FAIL" -ne 0 ]; then
    echo "bench gate FAILED: median regression over ${TOL} vs $BASE_FILE"
    echo "(if the regression is intended, refresh the snapshot with scripts/perf_smoke.sh"
    echo " and commit the new BENCH_<n>.json alongside the change)"
    exit 1
fi
echo "bench gate passed"
