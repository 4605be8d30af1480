#!/usr/bin/env bash
# One-command repo check: plain build + full test suite (including the
# bench-smoke JSON-schema and determinism tests), then an address+undefined
# sanitizer build (VIEWMAT_SANITIZE) running the same suite plus the
# crash-safety torture and recovery labels (the torture label includes the
# exhaustive crash-point sweep: one crashed run per disk operation for every
# maintenance strategy) and the wire-protocol chaos label, then a
# thread-sanitized build running the concurrency suites (tsan label) and the
# chaos suites again under TSan.
#
# Usage: scripts/check.sh [--quick]
#   --quick   plain build only (skip the sanitizer builds and torture label)
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
./build/bench/bench_sim_validation --json build/BENCH_sim_validation.new.json \
  --jobs "$jobs" >/dev/null
./build/bench/bench_diff BENCH_sim_validation.json \
  build/BENCH_sim_validation.new.json --threshold 5%
./build/bench/bench_fault_sweep --json build/BENCH_fault_sweep.new.json \
  --jobs "$jobs" >/dev/null
./build/bench/bench_diff BENCH_fault_sweep.json \
  build/BENCH_fault_sweep.new.json --threshold 5%
./build/bench/bench_server --json build/BENCH_server.new.json \
  --jobs "$jobs" >/dev/null
./build/bench/bench_diff BENCH_server.json \
  build/BENCH_server.new.json --threshold 5%
./build/bench/bench_server_scaling --json build/BENCH_server_scaling.new.json \
  --jobs "$jobs" >/dev/null
./build/bench/bench_diff BENCH_server_scaling.json \
  build/BENCH_server_scaling.new.json --threshold 5%
./build/bench/bench_chaos --json build/BENCH_chaos.new.json \
  --jobs "$jobs" >/dev/null
./build/bench/bench_diff BENCH_chaos.json \
  build/BENCH_chaos.new.json --threshold 5%

echo "== server smoke (multi-client view server + serializability oracle) =="
ctest --test-dir build --output-on-failure -L server

echo "== scaling lane (worker sweep determinism + shard/stripe stress) =="
ctest --test-dir build --output-on-failure -L scaling

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
echo "== thread-sanitized concurrency suites (tsan label) =="
ctest --test-dir build-tsan --output-on-failure -L tsan
echo "== thread-sanitized scaling smoke (worker sweep under TSan) =="
ctest --test-dir build-tsan --output-on-failure -L scaling
echo "== thread-sanitized chaos suites (oracle fan-out under TSan) =="
ctest --test-dir build-tsan --output-on-failure -L chaos

echo "check.sh: OK"
