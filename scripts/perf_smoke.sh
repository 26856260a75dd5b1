#!/usr/bin/env bash
# Perf smoke: build release, run the tier-1 suite, run the hot-path
# microbenches, time the parallel sweeps, and write two snapshots:
#
#   results/bench_hot_paths.json   append-only local history (JSON array)
#   BENCH_<n>.json                 per-PR snapshot at the repo root; <n>
#                                  auto-increments past the newest
#                                  committed BENCH_*.json (override with
#                                  BENCH_INDEX). scripts/bench_gate.sh
#                                  gates CI against the newest of these.
#
# Usage: scripts/perf_smoke.sh
# Env:   AEQUITAS_THREADS  sweep worker count for the parallel timings
#                          (default: all cores).
#        BENCH_INDEX       force the BENCH_<n>.json index.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline

echo "== tier-1 tests =="
# The full-length fig11 invariance test is #[ignore]'d in-tree (the quick
# probe covers determinism); no filter needed to stay smoke-sized.
cargo test -q --offline

echo "== hot-path microbenches =="
# No filter: the vendored criterion shim takes at most one substring
# filter, and the snapshot needs several groups; the full micro suite is
# cheap. tee -a: plain tee truncates when stderr is a redirected file.
BENCH_OUT=$(cargo bench --offline -p aequitas-bench --bench micro \
    2>&1 | tee -a /dev/stderr | grep '^bench ')

# Parse "bench <name>  median <x> ns/iter  (min <a>, max <b>, <r><unit> iters/s)".
# Empty (never null-fails the snapshot) when the bench name is absent.
median_ns() {
    echo "$BENCH_OUT" | { grep -F "bench $1 " || true; } \
        | sed -n 's/.*median \([0-9.]*\) ns\/iter.*/\1/p' | head -1
}
HEAP_NS=$(median_ns "event_queue_hold64/heap")
CAL_NS=$(median_ns "event_queue_hold64/calendar")
DENSE_NS=$(median_ns "event_queue_hold_dense/calendar")
SLICE_NS=$(median_ns "engine_run/rpc_8host_100us_slice")
SLAB_NS=$(median_ns "arena/slab_churn32")
BOXB_NS=$(median_ns "arena/box_churn_baseline")
SHARD_NS=$(median_ns "sharded_engine/clos3dom_100us_slice_1thread")
MET_STR_NS=$(median_ns "metrics_registry/counter_add_string_keyed")
MET_ID_NS=$(median_ns "metrics_registry/counter_add_interned_handle_opaque")
ROUTE_NS=$(median_ns "forwarding/route_nested_vec")
FIB_NS=$(median_ns "forwarding/fib_lookup_flat")
QUOTA_DENSE_NS=$(median_ns "quota_allocate_64t/dense")
QUOTA_REF_NS=$(median_ns "quota_allocate_64t/hashmap_reference")

echo "== parallel sweep wall-clock (fig14 sweep, serial vs AEQUITAS_THREADS) =="
SWEEP_BIN=target/release/aequitas-sim
T0=$(date +%s.%N)
AEQUITAS_THREADS=1 "$SWEEP_BIN" run fig14 >/dev/null
T1=$(date +%s.%N)
"$SWEEP_BIN" run fig14 >/dev/null
T2=$(date +%s.%N)
SERIAL_S=$(echo "$T1 $T0" | awk '{printf "%.3f", $1 - $2}')
PAR_S=$(echo "$T2 $T1" | awk '{printf "%.3f", $1 - $2}')

echo "== fleet-scale wall-clock (quick Clos, sharded engine, 1 vs AEQUITAS_THREADS) =="
F0=$(date +%s.%N)
AEQUITAS_THREADS=1 "$SWEEP_BIN" run fleet-scale >/dev/null
F1=$(date +%s.%N)
"$SWEEP_BIN" run fleet-scale >/dev/null
F2=$(date +%s.%N)
FLEET_SERIAL_S=$(echo "$F1 $F0" | awk '{printf "%.3f", $1 - $2}')
FLEET_PAR_S=$(echo "$F2 $F1" | awk '{printf "%.3f", $1 - $2}')

NPROC=$(nproc)
THREADS=${AEQUITAS_THREADS:-$NPROC}
STAMP=$(date -u +%Y-%m-%dT%H:%M:%SZ)

mkdir -p results
SNAP=$(cat <<EOF
{
  "timestamp": "$STAMP",
  "nproc": $NPROC,
  "sweep_threads": $THREADS,
  "event_queue_hold64_heap_ns_per_op": ${HEAP_NS:-null},
  "event_queue_hold64_calendar_ns_per_op": ${CAL_NS:-null},
  "event_queue_hold_dense_calendar_ns_per_op": ${DENSE_NS:-null},
  "engine_rpc_8host_100us_slice_ns": ${SLICE_NS:-null},
  "arena_slab_churn32_ns_per_op": ${SLAB_NS:-null},
  "arena_box_churn_baseline_ns_per_op": ${BOXB_NS:-null},
  "sharded_clos3dom_100us_slice_ns": ${SHARD_NS:-null},
  "metrics_counter_string_keyed_ns_per_op": ${MET_STR_NS:-null},
  "metrics_counter_interned_handle_opaque_ns_per_op": ${MET_ID_NS:-null},
  "fib_route_nested_vec_ns_per_op": ${ROUTE_NS:-null},
  "fib_lookup_flat_ns_per_op": ${FIB_NS:-null},
  "quota_allocate64_dense_ns": ${QUOTA_DENSE_NS:-null},
  "quota_allocate64_hashmap_ref_ns": ${QUOTA_REF_NS:-null},
  "fig14_sweep_serial_s": $SERIAL_S,
  "fig14_sweep_parallel_s": $PAR_S,
  "fleet_quick_serial_s": $FLEET_SERIAL_S,
  "fleet_quick_parallel_s": $FLEET_PAR_S
}
EOF
)
OUT=results/bench_hot_paths.json
if [ -s "$OUT" ]; then
    # Append to the existing JSON array.
    tmp=$(mktemp)
    sed '$ s/]$//' "$OUT" > "$tmp"
    printf ',\n%s\n]\n' "$SNAP" >> "$tmp"
    mv "$tmp" "$OUT"
else
    printf '[\n%s\n]\n' "$SNAP" > "$OUT"
fi
echo "appended snapshot to $OUT"

# Per-PR snapshot at the repo root. Index: one past the newest committed
# BENCH_<n>.json (the trajectory starts at BENCH_6.json, the PR that
# introduced it).
if [ -n "${BENCH_INDEX:-}" ]; then
    N=$BENCH_INDEX
else
    LAST=$({ ls BENCH_*.json 2>/dev/null || true; } \
        | sed -n 's/^BENCH_\([0-9]\{1,\}\)\.json$/\1/p' | sort -n | tail -1)
    N=$(( ${LAST:-5} + 1 ))
fi
printf '%s\n' "$SNAP" > "BENCH_$N.json"
echo "wrote BENCH_$N.json"
