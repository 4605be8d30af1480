#!/usr/bin/env bash
# Exact-sameness check for refactors: builds the tree, regenerates the five
# full-mode bench reports into build/, and diffs each one against its
# committed BENCH_<x>.json at a zero threshold. It passes only when every
# diff reads 0 regressions, 0 improvements and 0 errors — every logical
# field unchanged (bench_diff ignores the execution and build blocks).
# check.sh's 5% regression gate is the looser, everyday check.
#
# Usage: scripts/sameness.sh
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 2)

cmake -S . -B build >/dev/null
cmake --build build -j "$jobs" >/dev/null

clean=1
for bench in sim_validation fault_sweep server server_scaling chaos; do
  fresh="build/BENCH_${bench}.same.json"
  "./build/bench/bench_${bench}" --json "$fresh" --jobs "$jobs" >/dev/null
  report=$(./build/bench/bench_diff "BENCH_${bench}.json" "$fresh" \
    --threshold 0 2>&1) || true
  summary=$(tail -n 1 <<<"$report")
  echo "bench_${bench}: ${summary}"
  if ! grep -Eq ', 0 regressions .*, 0 improvements, 0 errors$' \
      <<<"$summary"; then
    echo "$report"
    clean=0
  fi
done

if [[ "$clean" != 1 ]]; then
  echo "sameness.sh: FAILED (a logical field moved)"
  exit 1
fi
echo "sameness.sh: OK"
