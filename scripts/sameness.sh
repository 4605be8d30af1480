#!/usr/bin/env bash
# Exact-sameness check for refactors: builds the tree, regenerates the five
# full-mode bench reports into build/, and compares each one with its
# committed BENCH_<x>.json as parsed JSON, ignoring only the `build` and
# `execution` blocks: every counter, phase attribution, span and timeline
# window must match, and the first differing path is printed. bench_diff's
# zero-threshold summary is printed alongside for reading; it compares only
# the cost metrics and table cells, so it does not decide the verdict.
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
  summary=$(./build/bench/bench_diff "BENCH_${bench}.json" "$fresh" \
    --threshold 0 2>&1 | tail -n 1) || true
  echo "bench_${bench}: ${summary}"
  if ! python3 - "BENCH_${bench}.json" "$fresh" <<'PY'; then
import json
import sys


def first_difference(a, b, path):
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path} (length {len(a)} vs {len(b)})"
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    return None if a == b else path


def load(path):
    with open(path) as f:
        report = json.load(f)
    report.pop("build", None)
    report.pop("execution", None)
    return report


where = first_difference(load(sys.argv[1]), load(sys.argv[2]), "$")
if where:
    print(f"  exact: {sys.argv[2]} differs from {sys.argv[1]} at {where}")
    sys.exit(1)
print("  exact: identical outside build and execution")
PY
    clean=0
  fi
done

if [[ "$clean" != 1 ]]; then
  echo "sameness.sh: FAILED (a logical field moved)"
  exit 1
fi
echo "sameness.sh: OK"
