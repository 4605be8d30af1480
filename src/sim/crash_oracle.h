#ifndef VIEWMAT_SIM_CRASH_ORACLE_H_
#define VIEWMAT_SIM_CRASH_ORACLE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "costmodel/params.h"
#include "sim/strategy_driver.h"

namespace viewmat::sim {

/// Knobs for the exhaustive crash-equivalence oracle. One oracle run
/// covers one (strategy, model) pair; sweep the pairs for full coverage.
struct CrashOracleOptions {
  StrategyKind kind = StrategyKind::kDeferred;
  /// 1 = select-project view, 2 = join view (qm/immediate/deferred only).
  int model = 1;
  uint64_t seed = 7;
  /// Worker threads for the crash-point fan-out (1 = serial, 0 = one per
  /// core). Every crash point runs against its own private instance and
  /// results merge in index order, so the result is identical at any job
  /// count.
  size_t jobs = 1;
  /// Operations (update transactions + view queries) per run.
  int ops_per_run = 24;
  /// Every query_every-th operation is a query; the rest are updates.
  int query_every = 4;
  /// RecoveryManager auto-checkpoint cadence for the RM-committing
  /// strategies (0 = no automatic checkpoints).
  size_t checkpoint_every = 0;
  /// Base parameter set; when shrink_params is set the shape fields are
  /// overridden with a small torture-sized database.
  costmodel::Params params;
  bool shrink_params = true;
};

/// Aggregate outcome of one oracle run.
struct CrashOracleResult {
  /// Disk operations the healthy run's workload+convergence window spans —
  /// the number of distinct crash points exercised.
  uint64_t crash_points = 0;
  uint64_t crashes_fired = 0;  ///< scripted crashes that actually fired
  uint64_t recoveries = 0;     ///< Recover() passes driven across all runs
  uint64_t rejected_txns = 0;  ///< transactions refused (loud failure)
  uint64_t failed_queries = 0; ///< queries that errored (loud failure)
  uint64_t prefix_checks = 0;  ///< post-recovery equivalence checks run
  /// The unacceptable outcomes — all must be zero:
  ///  - divergences: after a crash + Recover(), the visible base contents
  ///    did not equal the shadow's committed-prefix state;
  ///  - stale_reads: a post-recovery or mid-workload query returned OK with
  ///    a wrong answer;
  ///  - corrupt_runs: a run failed to converge on a healthy device, or its
  ///    converged state failed the golden triple.
  int divergences = 0;
  int stale_reads = 0;
  int corrupt_runs = 0;

  std::string ToString() const;
};

/// The crash-equivalence oracle: first drives a seeded workload through the
/// strategy on a healthy device and measures the disk-operation window it
/// spans (plus validating the golden invariant crash-free); then, for every
/// disk operation i in that window, replays a fresh instance of the same
/// seeded workload with a scripted crash at the i-th operation. After each
/// crash the harness restarts the device, runs the strategy's Recover(),
/// and checks prefix equivalence: the recovered (base, view) state must
/// equal the state produced by serially applying exactly the committed
/// transactions — committed-ness resolved against the durable log's
/// high-water mark. Every run ends with convergence plus the golden triple
/// (view ≡ oracle ≡ from-scratch recompute, visible base ≡ committed
/// state; see sim/oracle.h).
StatusOr<CrashOracleResult> RunCrashOracle(const CrashOracleOptions& options);

}  // namespace viewmat::sim

#endif  // VIEWMAT_SIM_CRASH_ORACLE_H_
