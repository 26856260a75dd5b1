#!/usr/bin/env bash
# Non-test line count of the workspace crates: per `.rs` file under
# `crates/*/src`, the lines before its first top-level `#[cfg(test)]` (the
# whole file when it has none), summed per crate and over all crates.
#
# The count is only honest if nothing but test code follows that line, so
# the script fails when a file has a top-level item after it that is not
# itself gated by `#[cfg(test)]` (lines inside raw-string fixtures are not
# items).
#
# A file pulled in by a `#[cfg(test)] mod name;` declaration is test code
# from its first line, so it counts 0.
#
# Usage: scripts/loc.sh [-v]    (-v also prints every file's count)
set -euo pipefail
cd "$(dirname "$0")/.."

verbose=0
[ "${1:-}" = "-v" ] && verbose=1

files=$(find crates/*/src -name '*.rs' | LC_ALL=C sort)
# shellcheck disable=SC2086 # one path per word: crate paths hold no blanks
gated=$(awk '
FNR == 1 { at = -1 }
/^#\[cfg\(test\)\]$/ { at = FNR; next }
FNR == at + 1 && match($0, /^mod [A-Za-z0-9_]+;/) {
    name = substr($0, 5, RLENGTH - 5)
    dir = FILENAME; sub(/[^\/]*$/, "", dir)
    stem = FILENAME; sub(/^.*\//, "", stem); sub(/\.rs$/, "", stem)
    if (stem != "lib" && stem != "main" && stem != "mod") dir = dir stem "/"
    print dir name ".rs"
    print dir name "/mod.rs"
}' $files)
# shellcheck disable=SC2086 # one path per word: crate paths hold no blanks
awk -v verbose="$verbose" -v gated="$gated" '
BEGIN { k = split(gated, g, "\n"); for (i = 1; i <= k; i++) test_module[g[i]] = 1 }
function finish() {
    if (file == "") return
    n = cut ? cut - 1 : FNR_last
    split(file, parts, "/")
    crate_lines[parts[2]] += n
    total += n
    if (verbose) printf "%7d  %s\n", n, file
}
FNR == 1 { finish(); file = FILENAME; cut = (file in test_module); gate = 0; raw = 0 }
{ FNR_last = FNR }
file in test_module { next }
cut == 0 && /^#\[cfg\(test\)\]/ { cut = FNR }
cut == 0 { next }
# After the cut: skip raw-string bodies, then demand a gate on every item.
raw { if (index($0, rawend)) raw = 0; next }
match($0, /(^|[^A-Za-z0-9_])r#*"/) {
    opener = substr($0, RSTART, RLENGTH)
    sub(/^[^r]/, "", opener)
    rawend = "\"" substr(opener, 2, length(opener) - 2)
    if (!index(substr($0, RSTART + RLENGTH), rawend)) raw = 1
}
/^#\[cfg\(test\)\]/ { gate = 1; next }
/^(pub(\([a-z:]+\))? +)?(fn|mod|struct|enum|impl|trait|use|const|static|type|macro_rules!|unsafe|extern|async)[ <!]/ {
    if (!gate) {
        printf "%s:%d: top-level item after the first #[cfg(test)] is not test-gated: %s\n", \
            FILENAME, FNR, $0 > "/dev/stderr"
        bad++
    }
    gate = 0
}
END {
    finish()
    for (c in crate_lines) printf "%7d  %s\n", crate_lines[c], c | "LC_ALL=C sort -k2"
    close("LC_ALL=C sort -k2")
    printf "%7d  total\n", total
    exit bad ? 1 : 0
}' $files
