#!/usr/bin/env bash
# Regenerate every figure and ablation, collecting console tables into
# bench_output.txt and CSVs into bench_results/.
#
# Usage: scripts/run_figures.sh [build-dir] [extra bench flags...]
#   e.g. scripts/run_figures.sh build --quick
set -euo pipefail

BUILD_DIR="${1:-build}"
shift || true
OUT_DIR="bench_results"
mkdir -p "$OUT_DIR"

BENCHES=(
  fig3_prodcons
  fig4_single_producer
  fig5_single_consumer
  fig6_executor
  ablation_spin
  ablation_reclaim
  ablation_pooling
  ablation_elimination
  ablation_cleaning
  ablation_contention
  throughput_sweep
)

# The executor bench costs far more per task (pool churn) than a bare
# handoff; scale its default op count down so the sweep stays minutes, not
# hours, on small hosts. Explicit flags on the command line still win.
extra_for() {
  case "$1" in
    fig6_executor) echo "--ops=1500" ;;
    *) echo "" ;;
  esac
}

: > bench_output.txt
for b in "${BENCHES[@]}"; do
  echo "== $b ==" | tee -a bench_output.txt
  # shellcheck disable=SC2046
  "$BUILD_DIR/bench/$b" $(extra_for "$b") --csv="$OUT_DIR/$b.csv" "$@" \
    | tee -a bench_output.txt
done

echo "done; tables in bench_output.txt, series in $OUT_DIR/"
