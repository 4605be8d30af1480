#ifndef VIEWMAT_SIM_SIMULATOR_H_
#define VIEWMAT_SIM_SIMULATOR_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "costmodel/params.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/cost_timeline.h"
#include "storage/cost_tracker.h"

namespace viewmat::sim {

/// Knobs for a simulation run.
struct SimOptions {
  uint64_t seed = 42;
  /// Buffer pool frames. 0 = auto: enough to keep R2 resident during a
  /// join (the model's assumption) while staying small otherwise.
  size_t buffer_pool_pages = 0;
  /// Write back and drop the cache between operations: each transaction
  /// and each query starts cold, matching the per-operation I/O counts the
  /// formulas charge. Caching still works *within* an operation (e.g. R2
  /// pages stay resident during one join).
  bool cold_cache_between_ops = true;
  /// Optional span tracer (not owned; null = tracing off). Each strategy
  /// run gets its own track, with model-ms timestamps restarting at zero,
  /// so runs render as parallel tracks in Perfetto.
  obs::Tracer* tracer = nullptr;
  /// Optional metrics registry (not owned; null = off). The driver records
  /// per-operation counts and model-ms histograms labeled by strategy.
  obs::MetricsRegistry* metrics = nullptr;
  /// Window width (model ms) for per-run cost timelines; 0 = timelines off.
  /// Each strategy run then carries cost(component, phase, t) plus drift
  /// signals per window (see storage/cost_timeline.h).
  double timeline_window_ms = 0;
};

/// Outcome of driving the workload through one strategy.
struct StrategyRun {
  std::string name;
  storage::CostCounters counters;        ///< measured operation counts
  /// The same counters attributed by (component, phase); cells sum to
  /// `counters` exactly.
  storage::AttributedCounters attributed;
  size_t queries = 0;                    ///< queries served in the run
  size_t updates = 0;                    ///< update transactions applied
  double measured_ms_per_query = 0;      ///< tracker ms / q
  double adjusted_ms_per_query = 0;      ///< measured − no-view baseline
  double analytical_ms_per_query = 0;    ///< the paper's TOTAL_* prediction
  /// Windowed cost(component, phase, t) samples and drift signals; empty
  /// unless SimOptions::timeline_window_ms was set. Windows sum to
  /// `counters` exactly.
  storage::CostTimeline timeline;
};

/// One simulated experiment: the same generated workload driven through a
/// no-view baseline and every applicable strategy, with per-strategy fresh
/// database instances.
struct SimResult {
  costmodel::Params params;
  int model = 0;                    ///< 1, 2, or 3
  uint64_t seed = 0;                ///< RNG seed the workload was built from
  size_t buffer_pool_pages = 0;     ///< resolved frame count (after auto)
  bool cold_cache_between_ops = true;
  double baseline_ms_per_query = 0;  ///< base updates only, no view work
  std::vector<StrategyRun> runs;

  std::string ToString() const;
};

/// Drives paper model `model`'s workload through its contenders:
///  - Model 1: deferred, immediate, QM clustered / unclustered / sequential;
///  - Model 2: deferred, immediate, QM nested-loops join;
///  - Model 3: deferred, immediate, recompute-per-query.
StatusOr<SimResult> Simulate(int model, const costmodel::Params& params,
                             const SimOptions& options);

}  // namespace viewmat::sim

#endif  // VIEWMAT_SIM_SIMULATOR_H_
