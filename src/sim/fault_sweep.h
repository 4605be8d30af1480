#ifndef VIEWMAT_SIM_FAULT_SWEEP_H_
#define VIEWMAT_SIM_FAULT_SWEEP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "costmodel/params.h"
#include "sim/strategy_driver.h"

namespace viewmat::sim {

/// Knobs for the crash-safety torture sweep: Model 1 (select-project) or
/// Model 2 (join) workloads driven through any maintenance strategy on a
/// FaultyDisk, under increasing fault rates and scripted crashes.
struct FaultSweepOptions {
  uint64_t seed = 42;
  /// Which maintenance strategy absorbs the faults.
  StrategyKind strategy = StrategyKind::kDeferred;
  /// 1 = select-project view, 2 = join view (qm/immediate/deferred only).
  int model = 1;
  /// Probability per disk read/write of an injected transient fault (0 =
  /// crash-only row when scripted_crashes is on).
  std::vector<double> fault_rates = {0.0, 0.01, 0.03, 0.08};
  int runs_per_rate = 13;
  /// Operations (update transactions + view queries) per run.
  int ops_per_run = 32;
  /// Every query_every-th operation is a query; the rest are updates.
  int query_every = 4;
  /// Fault budget per run (crashes included) so every run provably
  /// converges once the budget is spent. 0 = unlimited.
  uint64_t fault_budget = 40;
  /// Arm one scripted crash per run: at a random protocol point for the
  /// AD-journaled strategies (deferred/hybrid), at a random disk operation
  /// for the RecoveryManager-committing ones.
  bool scripted_crashes = true;
  /// Base parameter set; TortureParams overrides its shape fields with a
  /// small torture-sized database.
  costmodel::Params params;
};

/// Aggregate outcomes for one fault rate.
struct FaultSweepCell {
  double fault_rate = 0;
  int runs = 0;
  uint64_t faults_injected = 0;   ///< transient faults the disk injected
  uint64_t crashes = 0;           ///< scripted crashes that fired
  uint64_t recoveries = 0;        ///< Recover() roll-forwards driven
  uint64_t degraded_queries = 0;  ///< queries served by the fallback path
  uint64_t rejected_txns = 0;     ///< transactions refused (loud failure)
  uint64_t failed_queries = 0;    ///< queries that errored (loud failure)
  /// The two unacceptable outcomes. A query that returns OK must be exact,
  /// and the converged view must equal a from-scratch recompute.
  int silently_stale_runs = 0;
  int corrupt_runs = 0;
};

struct FaultSweepResult {
  std::vector<FaultSweepCell> cells;
  int total_runs = 0;
  int total_silently_stale = 0;
  int total_corrupt = 0;

  std::string ToString() const;
};

/// Drives runs_per_rate seeded workloads per fault rate through the chosen
/// maintenance strategy, injecting transient faults, torn writes, and
/// scripted crashes; verifies every successful query against a shadow
/// oracle, and after disarming the faults verifies the golden invariant:
/// the converged answer equals the oracle, a from-scratch recompute over
/// the folded base relation, and the base itself equals the oracle's
/// committed state.
StatusOr<FaultSweepResult> SimulateFaultSweep(const FaultSweepOptions& options);

}  // namespace viewmat::sim

#endif  // VIEWMAT_SIM_FAULT_SWEEP_H_
