#!/usr/bin/env bash
# Run the first-party static-analysis pass (aequitas-lint) over the
# workspace, then the suppression-debt gate: a new inline escape (`det:`,
# `unit:`, `shard:`) fails CI unless the committed lint-debt.toml baseline
# is regenerated — which makes every new suppression a reviewable diff.
# The rules rustc and clippy carry are checked by `cargo clippy` (see
# scripts/ci.sh). Rule IDs and rationale are documented in DESIGN.md
# ("Correctness tooling").
#
# Usage: scripts/lint.sh [--rules|--debt|--debt-gate|--debt-baseline]
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    # Explicit mode requested: pass through verbatim.
    cargo run -q --offline -p aequitas-lint -- "$@"
else
    cargo run -q --offline -p aequitas-lint
    cargo run -q --offline -p aequitas-lint -- --debt-gate
fi
