#ifndef VIEWMAT_SERVER_VIEW_SERVER_H_
#define VIEWMAT_SERVER_VIEW_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/schedule.h"
#include "sim/strategy_driver.h"
#include "storage/cost_tracker.h"

namespace viewmat::server {

/// The server's model clock: the model time its driver's tracker has
/// accumulated since Start(), read live, so a span opened and closed around
/// an op lasts exactly that op's model cost. Read only after Start().
class ModelClock : public obs::VirtualClock {
 public:
  void Start(const storage::CostTracker* tracker) {
    tracker_ = tracker;
    start_ = tracker->counters();
  }
  double NowMs() const override {
    return tracker_->Ms(tracker_->counters() - start_);
  }

 private:
  const storage::CostTracker* tracker_ = nullptr;
  storage::CostCounters start_;
};

/// How one scheduled op ended.
enum class OpStatus : uint8_t {
  kCommitted,    ///< update durably committed
  kAborted,      ///< update voluntarily aborted (unapplied changes undone)
  kRejected,     ///< update failed before/at commit and provably did not land
  kSkipped,      ///< never executed, or executed against state a crash erased
  kQueryExact,   ///< query answered; its digest matched the expected one
  kQueryStale,   ///< query answered but WRONG — a serializability violation
  kQueryFailed,  ///< query errored loudly (only possible in crash runs)
};

/// The multi-client view server: N simulated client sessions issue
/// interleaved update/query transactions against one shared StrategyDriver
/// (base relations + materialized view + maintenance strategy + recovery).
/// Run() executes them on the calling thread, one op at a time, in schedule
/// sequence order.
///
/// Determinism contract: the seeded scheduler fixes the global sequence
/// before anything runs, and every logical artifact — op outcomes, per-op
/// cost deltas, model time, conflict and wait analysis, the final state
/// digest — is a function of the options alone. Only the op loop's wall
/// time varies with the machine.
///
///  - Logical locks. Each op carries a t-lock interval set (schedule.h);
///    AnalyzeSchedule turns intersecting sets of in-window ops of other
///    clients into conflict edges, and Run() turns those into logical
///    waits on the model clock. Executing in sequence order is the serial
///    witness those locks would enforce, so nothing is locked at run time.
///  - Retirement. After an op executes, its cost is the tracker delta
///    across it and its commit stamp is the model clock (model time since
///    the build). A traced op's span covers its execution and its share of
///    group commit, so it lasts exactly the op's cost.
///  - Group commit (Options::driver.group_commit). Commit records buffer in
///    the log tail; retirement syncs once per `commit_batch` commits and at
///    the final op, charging the sync to the retiring op. A crash can then
///    lose a suffix of acknowledged commits: every update records the
///    transaction id the driver issued, and after recovery each id is
///    replayed against the durable high-water mark — lost commits demote to
///    kRejected and every later op's observation of the erased state
///    demotes to kSkipped.
class ViewServer {
 public:
  struct Options {
    sim::StrategyDriver::Options driver;
    ScheduleOptions schedule;
    /// Unused; kept only because perfbench/server.cc sets it.
    size_t workers = 1;
    /// Commits per group-commit batch (used only when driver.group_commit
    /// is set): retirement syncs the WAL after this many committed
    /// updates, and once more at the end of the schedule.
    size_t commit_batch = 4;
    /// If nonzero, the disk crashes at this (1-based) disk op after the
    /// schedule starts; the server stops, recovers, and reports a
    /// prefix-consistent state.
    size_t crash_at_disk_op = 0;
    /// Optional instrumentation (not owned; may be null). Create points
    /// the tracer at the server's model clock; it receives one server.txn /
    /// server.query span per executed op, on the current track.
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
  };

  struct OpResult {
    OpStatus status = OpStatus::kSkipped;
    storage::CostCounters cost;   ///< tracker delta across the op
    double commit_ms = 0.0;       ///< model clock when the op retired
    double arrive_ms = 0.0;       ///< logical arrival (client's prev commit)
    double logical_wait_ms = 0.0; ///< lock-wait under the logical model
    /// Transaction id the driver issued for this update (0 = none reached
    /// the driver). Deterministic; the post-crash reconciliation key.
    uint64_t txn_id = 0;

    bool physically_blocked = false;       ///< false; for perfbench/server.cc
    double physical_lock_wait_ms = 0.0;    ///< 0; for perfbench/server.cc
    double physical_commit_wait_ms = 0.0;  ///< 0; for perfbench/server.cc
  };

  struct Result {
    std::vector<OpResult> ops;  ///< indexed by schedule sequence

    uint64_t committed = 0;
    uint64_t aborted = 0;
    uint64_t rejected = 0;
    uint64_t skipped = 0;
    uint64_t queries_exact = 0;
    uint64_t queries_stale = 0;
    uint64_t queries_failed = 0;

    uint64_t logical_conflicts = 0;
    uint64_t conflicts_rw = 0;
    uint64_t conflicts_ww = 0;
    double logical_wait_ms = 0.0;

    double model_ms = 0.0;        ///< model time the schedule consumed
    double throughput_tps = 0.0;  ///< committed txns per model second
    storage::CostCounters total_cost;  ///< sum of all op costs

    uint64_t parallel_ops = 0;   ///< 0; for perfbench/server.cc
    uint64_t exclusive_ops = 0;  ///< executed ops; for perfbench/server.cc
    /// Group-commit batches synced (0 without group commit). Deterministic.
    uint64_t commit_batches = 0;

    bool crashed = false;
    uint64_t recoveries = 0;
    uint64_t state_digest = 0;  ///< StateDigest of the converged final state

    double wall_ms = 0.0;  ///< the op loop's wall time; for perfbench/server.cc
  };

  /// Builds the driver (healthy load), the schedule, and the conflict
  /// analysis.
  static StatusOr<std::unique_ptr<ViewServer>> Create(const Options& options);

  ViewServer(const ViewServer&) = delete;
  ViewServer& operator=(const ViewServer&) = delete;

  /// Executes the whole schedule on the calling thread. One-shot.
  StatusOr<Result> Run();

  const Schedule& schedule() const { return schedule_; }
  sim::StrategyDriver* driver() { return driver_.get(); }

 private:
  explicit ViewServer(const Options& options) : options_(options) {}

  /// Executes op `i`. Returns false when the disk crashed under the op (the
  /// server stops executing).
  bool ExecuteOp(size_t i);
  /// The group-commit step of retiring op `i`: one WAL sync at a batch
  /// boundary. Returns false when the disk crashed under the sync.
  bool SyncAtBatchBoundary(size_t i);
  /// Post-crash, post-recovery: replay recorded txn ids against the durable
  /// high-water mark; demote lost commits and everything that observed them.
  void ReconcileAfterRecovery();
  void RecordMetrics(const Result& result);

  Options options_;
  std::unique_ptr<sim::StrategyDriver> driver_;
  Schedule schedule_;
  ModelClock clock_;  ///< started at the end of the build

  size_t commits_in_batch_ = 0;
  uint64_t commit_batches_ = 0;

  sim::ShadowOracle exec_shadow_;
  std::vector<OpResult> results_;

  bool ran_ = false;
};

}  // namespace viewmat::server

#endif  // VIEWMAT_SERVER_VIEW_SERVER_H_
