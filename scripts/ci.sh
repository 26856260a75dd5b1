#!/usr/bin/env bash
# CI gate: first-party lint + suppression-debt gate, clippy with warnings
# denied (it carries most of the static rules: DESIGN §8.1), rustdoc with
# warnings denied, release build,
# the sharded engine's tests under a time limit, tier-1 tests, the simsan
# (simulation sanitizer) test job, an overflow-checks + simsan lane, a
# simsan determinism diff, the benchmark's build + self-checks, and the
# telemetry + replay + chaos smokes. Performance is not gated here: the merge gate runs
# BENCHMARK.json on the parent commit and on the change. The full-length fig11 invariance test is #[ignore]'d in-tree
# (the quick probe covers thread/backend determinism); run
# `cargo test -- --ignored` for the long variants.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint (aequitas-lint) =="
scripts/lint.sh

echo "== clippy =="
# Before the long test steps: clippy carries seven of the static rules
# (wall clock, RandomState, stdio, hot-path unwrap, reason-less allow,
# todo, replay unwrap/expect), and rustc's `unsafe_code` deny is checked
# by every build.
cargo clippy -q --offline --all-targets -- -D warnings

echo "== docs =="
# Intra-doc links must resolve: a type that moves or goes cannot leave a
# dangling link behind, and no public doc may point at a private item.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "== build (release) =="
cargo build --release --offline

echo "== sharded engine (time-limited) =="
# The lane workers wait by spinning: a lost wake-up or a halt flag nobody
# checks is a hang, not a failure. Run what exercises them first and under
# `timeout`, so that such a bug fails here in minutes instead of hanging
# the tier-1 step below, which runs the same tests without a limit.
timeout 600 cargo test -q --offline -p aequitas-netsim shard::
timeout 600 cargo test -q --offline --test sharded_determinism

echo "== tier-1 tests =="
cargo test -q --offline

echo "== tier-1 tests (simsan) =="
# Same suite with the simulation sanitizer compiled in: the invariant
# checks must hold on every test, and the deliberately-broken fixtures
# flip from silent to should_panic.
cargo test -q --offline --features simsan
# Once more one test at a time: above, a competing test keeps the second
# core busy, so spinning workers mostly ran descheduled; here they get it.
timeout 600 cargo test -q --offline --features simsan --test sharded_determinism \
    -- --test-threads=1

echo "== tier-1 tests (overflow-checks + simsan) =="
# Release profile disables overflow checks; this lane compiles the whole
# suite with them forced on (own target dir so the flag change does not
# thrash the main cache) so silent wrap-around in time/byte arithmetic
# fails loudly instead of corrupting results.
RUSTFLAGS="-C overflow-checks=on" CARGO_TARGET_DIR=target/overflow \
    cargo test -q --offline --features simsan

echo "== simsan determinism diff =="
# The sanitizer must observe, never steer: a full-stack run (WFQ fabric,
# Swift CC, admission control) has to produce byte-identical output with
# and without the feature. Dev profile: both artifact trees are warm from
# the test jobs above.
cargo run -q --offline -p aequitas-experiments --example quickstart \
    > target/simsan-diff-off.txt
cargo run -q --offline -p aequitas-experiments --features simsan --example quickstart \
    > target/simsan-diff-on.txt
diff target/simsan-diff-off.txt target/simsan-diff-on.txt \
    || { echo "simsan perturbed simulation results"; exit 1; }

echo "== benchmark (build + self-check) =="
# benchmark/ is a workspace of its own (BENCHMARK.json runs it from a fresh
# checkout), so nothing above compiles it: a break in the telemetry/replay
# API it calls would otherwise surface only at the merge gate. Its unit
# tests, then the one workload that drives the trace writer and the replay
# reader end to end, and the one that drives the event queue through the
# sharded window protocol (peek every domain, then inject earlier arrivals)
# — span-traced, because one_thread_matches_n_threads runs only there —
# and the one that builds crates/baselines through their own constructors
# (D3 and PDQ, then the other three), span-traced too, and the one whose
# fault plan destroys frames in flight, the only workload that frees
# packet-slab handles on the loss and corruption paths (a double free
# panics; a handle used after its slot was recycled reads another packet
# and fails the checks; the netsim unit tests catch leaks). A run exits
# non-zero if a built-in check fails (every_rep_same_simulation,
# spans_do_not_perturb_the_simulation, audit_trace_integrity_pass, ...).
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload star33_traced_audit --seed 2022 --seconds 2 --trace 0 > /dev/null
timeout 600 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload clos128_sharded --seed 2022 --seconds 2 --trace 1 > /dev/null
timeout 600 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload star33_deadline --seed 2022 --seconds 2 --trace 1 > /dev/null
timeout 600 cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload star33_faults --seed 2022 --seconds 2 --trace 1 > /dev/null

echo "== trace smoke =="
scripts/trace_smoke.sh

echo "== replay smoke =="
scripts/replay_smoke.sh

echo "== chaos smoke =="
scripts/chaos_smoke.sh

echo "ci passed"
