#!/usr/bin/env bash
# Chaos smoke: end-to-end checks of the fault-injection subsystem through
# the CLI.
#
#   1. `--faults PLAN.toml` loads an operator-written plan, injects it into
#      an ordinary experiment, and the fault lifecycle events (link down/up,
#      fault drops) appear in the structured trace.
#   2. The chaos scenarios are deterministic: two runs of chaos-flap print
#      byte-identical output (the report includes a digest over every
#      completion).
#   3. The simulation sanitizer observes without steering: chaos-flap
#      output is byte-identical from a debug build (checks on) and a release
#      build (checks compiled out), like the ci.sh dev-vs-release diff.
#   4. Gray/correlated fault plans (switch outage, pod outage, gray degrade)
#      parse through the TOML schema, and validation rejects the malformed
#      variants with named-rule diagnostics.
#   5. The baseline x fault containment matrix runs end-to-end and is
#      deterministic, including the time-to-SLO-restore column.
#
# Usage: scripts/chaos_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

echo "== build (release) =="
cargo build -q --release --offline -p aequitas-experiments

echo "== fault plan through --faults + --trace =="
PLAN="$OUT/plan.toml"
cat > "$PLAN" <<'EOF'
# Smoke plan: one flap on host 0's uplink inside the trace-demo run, plus
# mild everywhere loss.
seed = 99

[[link_flap]]
link = "host:0"
first_down_us = 1500.0
down_us = 200.0
period_us = 1000000.0
count = 1

[[loss]]
link = "any"
prob = 0.01
EOF
TRACE="$OUT/trace.jsonl"
target/release/aequitas-sim run trace-demo --faults "$PLAN" --trace "$TRACE" >/dev/null
[ -s "$TRACE" ] || { echo "FAIL: trace file empty" >&2; exit 1; }
for ev in fault_link_down fault_link_up fault_pkt_drop; do
    grep -q "\"type\":\"$ev\"" "$TRACE" \
        || { echo "FAIL: no $ev events in the trace" >&2; exit 1; }
done
echo "ok: fault lifecycle events present in the trace"

echo "== rejects a malformed plan =="
BAD="$OUT/bad.toml"
printf '[[loss]]\nlink = "any"\nprobability = 0.5\n' > "$BAD"
if target/release/aequitas-sim run trace-demo --faults "$BAD" >/dev/null 2>"$OUT/err.txt"; then
    echo "FAIL: malformed plan was accepted" >&2; exit 1
fi
grep -q "unknown key" "$OUT/err.txt" \
    || { echo "FAIL: unexpected error for malformed plan:" >&2; cat "$OUT/err.txt" >&2; exit 1; }
echo "ok: malformed plan rejected with a diagnostic"

echo "== gray-failure plan through --faults =="
GRAY="$OUT/gray.toml"
cat > "$GRAY" <<'EOF'
# Gray + correlated faults: host 0's uplink runs at 30% capacity with a
# creeping jitter ramp, and the (only) switch of the trace-demo star dies
# briefly.
seed = 7

[[gray_degrade]]
link = "host:0"
start_us = 500.0
end_us = 2500.0
rate_frac = 0.3
jitter_ramp_ns = 800.0

[[switch_outage]]
switch = 0
start_us = 1000.0
end_us = 1200.0
EOF
GTRACE="$OUT/gray-trace.jsonl"
target/release/aequitas-sim run trace-demo --faults "$GRAY" --trace "$GTRACE" >/dev/null
grep -q '"type":"fault_link_down"' "$GTRACE" \
    || { echo "FAIL: switch outage left no link-down events" >&2; exit 1; }
echo "ok: gray + switch-outage plan accepted and visible in the trace"

echo "== rejects malformed gray/outage plans with named rules =="
BADGRAY="$OUT/bad-gray.toml"
printf '[[gray_degrade]]\nlink = "any"\nstart_us = 1.0\nend_us = 2.0\nrate_frac = 1.5\n' > "$BADGRAY"
if target/release/aequitas-sim run trace-demo --faults "$BADGRAY" >/dev/null 2>"$OUT/err2.txt"; then
    echo "FAIL: out-of-range rate_frac was accepted" >&2; exit 1
fi
grep -q "rate_frac" "$OUT/err2.txt" \
    || { echo "FAIL: unexpected error for bad gray plan:" >&2; cat "$OUT/err2.txt" >&2; exit 1; }
BADPOD="$OUT/bad-pod.toml"
printf '[[pod_outage]]\npod = 0\nstart_us = 1.0\nend_us = 2.0\n' > "$BADPOD"
if target/release/aequitas-sim run trace-demo --faults "$BADPOD" >/dev/null 2>"$OUT/err3.txt"; then
    echo "FAIL: pod outage without a pod layout was accepted" >&2; exit 1
fi
grep -q "pod layout" "$OUT/err3.txt" \
    || { echo "FAIL: unexpected error for bad pod plan:" >&2; cat "$OUT/err3.txt" >&2; exit 1; }
BADFLAP="$OUT/bad-flap.toml"
printf '[[link_flap]]\nlink = "any"\nfirst_down_us = 1.0\ndown_us = 0.0\nperiod_us = 0.0\ncount = 1\n' > "$BADFLAP"
if target/release/aequitas-sim run trace-demo --faults "$BADFLAP" >/dev/null 2>"$OUT/err4.txt"; then
    echo "FAIL: zero-period flap was accepted" >&2; exit 1
fi
grep -q "period must be positive" "$OUT/err4.txt" \
    || { echo "FAIL: unexpected error for zero-period flap:" >&2; cat "$OUT/err4.txt" >&2; exit 1; }
echo "ok: malformed gray/pod/flap plans rejected with named-rule diagnostics"

echo "== baseline x fault containment matrix =="
target/release/aequitas-sim run chaos-containment > "$OUT/containment-1.txt"
grep -q "Aequitas" "$OUT/containment-1.txt" && grep -q "Homa" "$OUT/containment-1.txt" \
    || { echo "FAIL: containment table missing schemes" >&2; cat "$OUT/containment-1.txt" >&2; exit 1; }
grep -q "SLO restore" "$OUT/containment-1.txt" \
    || { echo "FAIL: no recovery column in the containment table" >&2; exit 1; }
target/release/aequitas-sim run chaos-containment > "$OUT/containment-2.txt"
diff "$OUT/containment-1.txt" "$OUT/containment-2.txt" \
    || { echo "FAIL: chaos-containment runs differ" >&2; exit 1; }
echo "ok: containment matrix runs, has the restore column, deterministic"

echo "== chaos-flap determinism =="
target/release/aequitas-sim run chaos-flap > "$OUT/flap-1.txt"
target/release/aequitas-sim run chaos-flap > "$OUT/flap-2.txt"
diff "$OUT/flap-1.txt" "$OUT/flap-2.txt" \
    || { echo "FAIL: chaos-flap runs differ" >&2; exit 1; }
echo "ok: two chaos-flap runs byte-identical"

echo "== chaos-flap dev-vs-release diff =="
cargo run -q --offline -p aequitas-experiments --bin aequitas-sim \
    run chaos-flap > "$OUT/flap-dev.txt"
diff "$OUT/flap-1.txt" "$OUT/flap-dev.txt" \
    || { echo "FAIL: debug and release builds disagree on the chaos run" >&2; exit 1; }
echo "ok: debug and release builds byte-identical"

echo "chaos smoke passed"
