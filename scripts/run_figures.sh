#!/usr/bin/env bash
# Regenerate every figure and ablation: each bench in SSQ_FIG_BENCHES
# (bench/CMakeLists.txt, listed in <build-dir>/bench/fig_benches.txt),
# collecting console tables into bench_output.txt and one JSON file per
# bench, with each cell's spread and the host record, into bench_results/.
#
# Usage: scripts/run_figures.sh [build-dir] [extra bench flags...]
#   e.g. scripts/run_figures.sh build --quick
set -euo pipefail

BUILD_DIR="${1:-build}"
shift || true
OUT_DIR="bench_results"
mkdir -p "$OUT_DIR"
mapfile -t BENCHES < "$BUILD_DIR/bench/fig_benches.txt"

: > bench_output.txt
for b in "${BENCHES[@]}"; do
  echo "== $b ==" | tee -a bench_output.txt
  "$BUILD_DIR/bench/$b" --json="$OUT_DIR/$b.json" "$@" | tee -a bench_output.txt
done

echo "done; tables in bench_output.txt, series in $OUT_DIR/"
