#!/usr/bin/env bash
# Render every CSV produced by `AEQUITAS_CSV_DIR=<dir> aequitas-sim run all` into a
# quick-look PNG using gnuplot (first column = x, remaining columns = series).
# Usage: scripts/plot_csv.sh <csv-dir> [out-dir]
set -euo pipefail
csv_dir=${1:?usage: plot_csv.sh <csv-dir> [out-dir]}
out_dir=${2:-$csv_dir/plots}
command -v gnuplot >/dev/null || { echo "gnuplot not installed" >&2; exit 1; }
mkdir -p "$out_dir"
for f in "$csv_dir"/*.csv; do
    base=$(basename "$f" .csv)
    cols=$(head -1 "$f" | awk -F, '{print NF}')
    {
        echo "set datafile separator ','"
        echo "set terminal pngcairo size 900,540"
        echo "set output '$out_dir/$base.png'"
        echo "set key outside"
        echo "set title '$base' noenhanced"
        plots=""
        for ((c = 2; c <= cols; c++)); do
            name=$(head -1 "$f" | cut -d, -f"$c")
            [ -n "$plots" ] && plots+=", "
            plots+="'$f' using 0:$c with linespoints title '$name' noenhanced"
        done
        echo "plot $plots"
    } | gnuplot - 2>/dev/null && echo "wrote $out_dir/$base.png" || echo "skipped $base (non-numeric)"
done
