#!/usr/bin/env bash
# Golden check: rerun every experiment at quick scale and compare its
# output with the committed golden in results/: `quick.txt` (the stdout of
# `aequitas-sim run all`, without its `[csv written to ...]` lines) and
# `csv/` (one CSV per printed table). Any difference fails the script.
#
# A change that must not move a figure passes unchanged; a change that
# should move one regenerates the golden as results/README.md says and
# commits the new files with it. Output is byte-identical for every
# `--threads` value, so the script uses all cores: about 6 minutes on 2.
#
# Usage: scripts/results_diff.sh
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

cargo build -q --release --offline -p aequitas-experiments
AEQUITAS_CSV_DIR="$OUT/csv" target/release/aequitas-sim run all --threads "$(nproc)" \
    | grep -v '^\[csv written to ' > "$OUT/quick.txt"

status=0
diff -u results/quick.txt "$OUT/quick.txt" || status=1
diff -r results/csv "$OUT/csv" || status=1
if [ "$status" = 0 ]; then
    echo "results match the golden"
else
    echo "results differ from the golden (results/quick.txt, results/csv/)"
fi
exit "$status"
