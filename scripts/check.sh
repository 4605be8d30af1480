#!/usr/bin/env bash
# One-command repo check: plain build + full test suite (including the
# bench-smoke JSON-schema and determinism tests), then an address+undefined
# sanitizer build (VIEWMAT_SANITIZE) running the same suite plus the
# crash-safety torture and recovery labels (the torture label includes the
# exhaustive crash-point sweep: one crashed run per disk operation for every
# maintenance strategy) and the wire-protocol chaos label, then a
# thread-sanitized build running the one suite that starts threads (tsan
# label: the owner check). Every engine, sink, sweep and oracle runs on one
# thread, so every other suite runs in the plain and ASan lanes only. The
# full lane also runs the bench_diff gate against all five committed
# baselines and the wall-clock benchmark's self-check
# (perfbench/selfcheck.py).
#
# Usage: scripts/check.sh [--quick]
#   --quick   plain build only (skip the sanitizer builds, torture label and
#             benchmark self-check)
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 2)
quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "== plain build =="
cmake -S . -B build >/dev/null
cmake --build build -j "$jobs"
echo "== plain tests (tier 1 + bench-smoke, parallel, 3 passes) =="
ctest --test-dir build --output-on-failure -j "$jobs" --repeat until-fail:3 \
  -LE torture

if [[ "$quick" == 1 ]]; then
  echo "check.sh --quick: OK"
  exit 0
fi

echo "== bench regression gate (bench_diff vs committed baselines) =="
# Fresh full-mode reports diffed against the committed BENCH_*.json at a 5%
# threshold: any cost metric growing past it (or any metric/run/table going
# missing) fails the check. The sweeps are deterministic, so a clean tree
# diffs clean; an intentional perf change ships with regenerated baselines.
./build/bench/bench_sim_validation \
  --json build/BENCH_sim_validation.new.json >/dev/null
./build/bench/bench_diff BENCH_sim_validation.json \
  build/BENCH_sim_validation.new.json --threshold 5%
./build/bench/bench_sim_sweeps \
  --json build/BENCH_sim_sweeps.new.json >/dev/null
./build/bench/bench_diff BENCH_sim_sweeps.json \
  build/BENCH_sim_sweeps.new.json --threshold 5%
./build/bench/bench_fault_sweep \
  --json build/BENCH_fault_sweep.new.json >/dev/null
./build/bench/bench_diff BENCH_fault_sweep.json \
  build/BENCH_fault_sweep.new.json --threshold 5%
./build/bench/bench_server \
  --json build/BENCH_server.new.json >/dev/null
./build/bench/bench_diff BENCH_server.json \
  build/BENCH_server.new.json --threshold 5%
./build/bench/bench_chaos \
  --json build/BENCH_chaos.new.json >/dev/null
./build/bench/bench_diff BENCH_chaos.json \
  build/BENCH_chaos.new.json --threshold 5%

echo "== benchmark self-check (perfbench against src/, tiny sizes) =="
# perfbench builds from src/ and re-derives every answer it checks through
# the library (net::DigestMultiset, the sim oracles), so src/ drifting from
# what the benchmark expects fails here rather than in a benchmark run.
python3 perfbench/selfcheck.py

echo "== server smoke (multi-client view server + serializability oracle) =="
ctest --test-dir build --output-on-failure -L server

echo "== sanitized build (address;undefined) =="
cmake -S . -B build-asan -DVIEWMAT_SANITIZE="address;undefined" >/dev/null
cmake --build build-asan -j "$jobs"
echo "== sanitized tests =="
ctest --test-dir build-asan --output-on-failure -LE torture
echo "== sanitized recovery label (WAL + RecoveryManager + per-strategy) =="
ctest --test-dir build-asan --output-on-failure -L recovery
echo "== sanitized torture label (exhaustive crash-point sweep) =="
ctest --test-dir build-asan --output-on-failure -L torture
echo "== sanitized chaos label (wire protocol + chaos oracle) =="
ctest --test-dir build-asan --output-on-failure -L chaos

echo "== thread-sanitized build =="
cmake -S . -B build-tsan -DVIEWMAT_SANITIZE="thread" >/dev/null
cmake --build build-tsan -j "$jobs"
echo "== thread-sanitized thread-starting suite (tsan label) =="
ctest --test-dir build-tsan --output-on-failure -L tsan

echo "check.sh: OK"
