#!/usr/bin/env bash
# Exact-sameness check for refactors: builds the tree, regenerates the five
# full-mode bench reports into build/, and compares each one with its
# committed BENCH_<x>.json as parsed JSON, ignoring only the `build` and
# `execution` blocks: every counter, phase attribution, span and timeline
# window must match. On a difference it prints the first differing path,
# then the regeneration's scope: one line per differing table row (title
# and x), run (name) or note key, with its count of differing leaves.
# bench_diff's zero-threshold summary is printed alongside for reading; it
# compares only the cost metrics and table cells, so it does not decide
# the verdict.
# check.sh's 5% regression gate is the looser, everyday check.
#
# With --parent <build-dir> (a build of the tree the change starts from) it
# also runs every bench target bench/CMakeLists.txt defines, in full mode,
# from both build directories, diffs their stdout, and fails
# naming the first bench whose output differs. Skipped: bench_yao_micro
# (prints wall-clock nanoseconds), bench_diff and bench_schema_check (tools,
# not benches). This covers the benches whose output is in no committed
# report.
#
# Usage: scripts/sameness.sh [--parent <build-dir>]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 2)
parent=""
if [[ "${1:-}" == "--parent" ]]; then
  parent="${2:?usage: scripts/sameness.sh [--parent <build-dir>]}"
  [[ -d "$parent/bench" ]] || { echo "no bench/ under $parent"; exit 2; }
elif [[ $# -gt 0 ]]; then
  echo "usage: scripts/sameness.sh [--parent <build-dir>]"
  exit 2
fi

cmake -S . -B build >/dev/null
cmake --build build -j "$jobs" >/dev/null

clean=1
for bench in sim_validation sim_sweeps fault_sweep server chaos; do
  fresh="build/BENCH_${bench}.same.json"
  "./build/bench/bench_${bench}" --json "$fresh" >/dev/null
  summary=$(./build/bench/bench_diff "BENCH_${bench}.json" "$fresh" \
    --threshold 0 2>&1 | tail -n 1) || true
  echo "bench_${bench}: ${summary}"
  if ! python3 - "BENCH_${bench}.json" "$fresh" <<'PY'; then
import json
import sys


def differences(a, b, path):
    """Yields (path, note) for every differing leaf, in document order."""
    if type(a) is not type(b):
        yield path, ""
    elif isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                yield path + [key], ""
            else:
                yield from differences(a[key], b[key], path + [key])
    elif isinstance(a, list):
        if len(a) != len(b):
            yield path, f" (length {len(a)} vs {len(b)})"
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                yield from differences(x, y, path + [i])
    elif a != b:
        yield path, ""


def render(path):
    return "$" + "".join(f"[{t}]" if isinstance(t, int) else f".{t}"
                         for t in path)


def scope(report, path):
    """The table row, run or note a differing leaf belongs to."""
    try:
        if path[0] == "tables" and path[2] == "rows":
            table = report["tables"][path[1]]
            return f"table '{table['title']}' x={table['rows'][path[3]]['x']:g}"
        if path[0] == "sim_results" and path[2] == "runs":
            run = report["sim_results"][path[1]]["runs"][path[3]]
            return f"run '{run['name']}' (sim_results[{path[1]}])"
        if path[0] == "notes":
            return f"note '{path[1]}'"
    except (IndexError, KeyError, TypeError):
        pass
    return render(path[:2])


def load(path):
    with open(path) as f:
        report = json.load(f)
    report.pop("build", None)
    report.pop("execution", None)
    return report


old, new = load(sys.argv[1]), load(sys.argv[2])
diffs = list(differences(old, new, []))
if diffs:
    where, note = diffs[0]
    print(f"  exact: {sys.argv[2]} differs from {sys.argv[1]} at "
          f"{render(where)}{note}")
    leaves = {}
    for where, _ in diffs:
        unit = scope(old, where)
        leaves[unit] = leaves.get(unit, 0) + 1
    print(f"  scope: {len(diffs)} differing leaves in {len(leaves)} "
          "rows, runs or notes")
    for unit, count in leaves.items():
        print(f"    {unit}: {count}")
    sys.exit(1)
print("  exact: identical outside build and execution")
PY
    clean=0
  fi
done

if [[ -n "$parent" ]]; then
  # The bench list comes from the tree, not from the binaries in build/:
  # a build directory keeps binaries of benches the tree no longer defines.
  out=build/sameness
  mkdir -p "$out"
  first=""
  for bench in $(sed -nE 's/^(viewmat_bench|add_executable)\((bench_[a-z0-9_]+).*/\2/p' \
      bench/CMakeLists.txt); do
    case "$bench" in
      bench_yao_micro | bench_diff | bench_schema_check) continue ;;
    esac
    if [[ ! -x "$parent/bench/$bench" ]]; then
      echo "$bench: missing from $parent"
      first=${first:-$bench}
      continue
    fi
    "$parent/bench/$bench" >"$out/$bench.parent.txt"
    "./build/bench/$bench" >"$out/$bench.tree.txt"
    if cmp -s "$out/$bench.parent.txt" "$out/$bench.tree.txt"; then
      echo "$bench: stdout identical"
    else
      echo "$bench: stdout differs (diff $out/$bench.parent.txt $out/$bench.tree.txt)"
      first=${first:-$bench}
    fi
  done
  if [[ -n "$first" ]]; then
    echo "first bench that differs or is missing: $first"
    clean=0
  fi
fi

if [[ "$clean" != 1 ]]; then
  echo "sameness.sh: FAILED (a logical field or a bench's stdout moved)"
  exit 1
fi
echo "sameness.sh: OK"
