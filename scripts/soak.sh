#!/usr/bin/env bash
# Long-running randomized soak across every implementation; intended to run
# under the ASan/TSan build configurations for hours before releases.
#
# Usage: scripts/soak.sh [build-dir] [seconds-per-impl] [threads]
set -euo pipefail

BUILD_DIR="${1:-build}"
SECONDS_PER="${2:-30}"
THREADS="${3:-8}"

IMPLS=(new-fair new-unfair seg-fair ltq java5-fair java5-unfair naive eliminating)

fail=0
for impl in "${IMPLS[@]}"; do
  for seed in 1 2 3; do
    echo "== torture --impl=$impl --seed=$seed =="
    if ! "$BUILD_DIR/tools/torture" --impl="$impl" --threads="$THREADS" \
        --seconds="$SECONDS_PER" --seed="$seed"; then
      echo "SOAK FAILURE: $impl seed=$seed"
      fail=1
    fi
  done
done
exit $fail
