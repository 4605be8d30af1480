#ifndef VIEWMAT_SIM_STRATEGY_DRIVER_H_
#define VIEWMAT_SIM_STRATEGY_DRIVER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "costmodel/params.h"
#include "costmodel/strategy.h"
#include "db/catalog.h"
#include "db/recovery.h"
#include "hr/ad_file.h"
#include "storage/buffer_pool.h"
#include "storage/faulty_disk.h"
#include "view/materialized_view.h"
#include "view/snapshot.h"
#include "view/strategy.h"
#include "view/view_def.h"
#include "workload/workload.h"

namespace viewmat::sim {

/// A counted multiset of tuples — the common currency of every torture
/// check (view answers, base contents, recomputes).
using ViewMultiset = std::map<db::Tuple, int64_t>;

/// Every maintenance strategy a driver can run.
enum class StrategyKind {
  kQueryModification,
  kImmediate,
  kDeferred,
  kSnapshot,
  kRecomputeOnChange,
  kHybrid,
};

inline constexpr StrategyKind kAllStrategyKinds[] = {
    StrategyKind::kQueryModification, StrategyKind::kImmediate,
    StrategyKind::kDeferred,          StrategyKind::kSnapshot,
    StrategyKind::kRecomputeOnChange, StrategyKind::kHybrid,
};

const char* StrategyKindName(StrategyKind kind);
StatusOr<StrategyKind> ParseStrategyKind(const std::string& name);

/// Whether the driver can run `kind` over paper model `model`: every
/// strategy maintains the Model 1 select-project view; only
/// query-modification, immediate, and deferred maintain the Model 2 join
/// and the Model 3 aggregate (where query modification recomputes it).
bool SupportsModel(StrategyKind kind, int model);

/// The torture-sized parameter set (small database, small transactions)
/// shared by the fault sweep and the crash oracle.
costmodel::Params TortureParams(const costmodel::Params& base);

/// The harness's own shadow of the updated relation. Scenario's oracle
/// mutates when a transaction is *generated*; the torture harness must only
/// advance its oracle when the strategy *acknowledged* (or provably
/// committed) the transaction, so it keeps its own copy of the one mutable
/// column.
struct ShadowOracle {
  int64_t n = 0;
  int64_t f_cut = 0;  ///< keys < f_cut satisfy the view predicate
  std::vector<int64_t> k2;  ///< immutable join column
  std::vector<double> v;    ///< the updated payload
  std::vector<double> w_by_r2_key;

  db::Tuple BaseTuple(int64_t key) const {
    return db::Tuple({db::Value(key), db::Value(k2[key]), db::Value(v[key]),
                      db::Value(std::string("x"))});
  }
};

ShadowOracle MakeShadow(const workload::Scenario& scenario);

/// The view value the shadow predicts for a base key; false when the key is
/// outside the view.
bool ShadowViewTuple(const ShadowOracle& shadow, int model, int64_t key,
                     db::Tuple* out);

/// The exact multiset a view query over [lo, hi] must return.
ViewMultiset ExpectedRange(const ShadowOracle& shadow, int model, int64_t lo,
                           int64_t hi);

/// From-scratch recompute of the view over the (folded) base relation,
/// bypassing the strategy entirely — the independent half of the golden
/// invariant.
Status RecomputeFromBase(int model, const view::SelectProjectDef& sp,
                         const view::JoinDef& join, db::Relation* rel,
                         ViewMultiset* out);

/// One self-contained engine instance — simulated device behind a
/// FaultyDisk, buffer pool, catalog, scenario data, one maintenance
/// strategy, and (when durable) the recovery machinery wired for it —
/// behind a uniform interface. It is the one assembly path: the paper
/// simulation (Simulate), the four oracles, the view server and the
/// wall-clock benchmark all run driver instances, each owned by one
/// thread.
///
/// Recovery wiring per strategy, when Options::durable is set (the driver
/// forwards every durability call to the strategy's view::ViewStrategy
/// hooks):
///  - query-modification / immediate / snapshot / recompute-on-change
///    commit through a RecoveryManager (unified WAL, log-commit-then-apply);
///  - deferred / hybrid are journaled(): they use their AD-file WAL
///    protocol, with the AD log drawing LSNs from the RecoveryManager's
///    allocator so all records share one LSN space.
/// A non-durable driver (the simulator's) has no RecoveryManager and no AD
/// log, so its model-ms count only the paper's maintenance work.
class StrategyDriver {
 public:
  struct Options {
    StrategyKind kind = StrategyKind::kDeferred;
    /// 1 = select-project view, 2 = join view, 3 = aggregate (see
    /// SupportsModel).
    int model = 1;
    /// Torture-sized already (the driver does not shrink).
    costmodel::Params params;
    uint64_t seed = 1;
    /// RecoveryManager auto-checkpoint cadence (0 = explicit only).
    size_t checkpoint_every = 0;
    /// Group commit: commit records (redo WAL and AD log alike) buffer in
    /// the log's tail page instead of syncing per commit; the server calls
    /// SyncWal() at batch boundaries. A crash can lose the unsynced suffix —
    /// recovery then resolves each issued transaction id against the
    /// durable high-water mark.
    bool group_commit = false;
    /// Buffer-pool frames. The default matches the historical hard-coded
    /// pool; bench_server's group-commit tables raise it to 256.
    size_t pool_pages = 128;
    /// Crash-safe wiring: a RecoveryManager and the AD log. Simulate turns
    /// it off, so the paper's numbers carry no logging cost. Model 3
    /// requires it off: the aggregates do not recover yet.
    bool durable = true;
    /// How query modification reads R on Model 1: kQmClustered (the
    /// clustered B+-tree), kQmUnclustered (R loaded as a heap) or
    /// kQmSequential (a full scan). Any other kind or model takes the
    /// default only.
    costmodel::Strategy qm_plan = costmodel::Strategy::kQmClustered;
  };

  /// Loads the scenario database on a healthy device, builds the strategy,
  /// initializes its materialized state, and flushes the pool. Rejects an
  /// unsupported kind × model, Model 3 with durability on, and a
  /// non-clustered qm_plan outside Model 1's query modification; each
  /// message names the field.
  static StatusOr<std::unique_ptr<StrategyDriver>> Create(
      const Options& options);

  StrategyDriver(const StrategyDriver&) = delete;
  StrategyDriver& operator=(const StrategyDriver&) = delete;

  Status OnTransaction(const db::Transaction& txn);
  Status Query(int64_t lo, int64_t hi,
               const view::MaterializedView::CountedVisitor& visit);

  /// Crash recovery for whichever strategy is active. Idempotent.
  Status Recover();

  /// Group-commit batch boundary: forces whichever log the active strategy
  /// commits through (redo WAL or AD log) to the device. Harmless no-op
  /// when Options::group_commit is off.
  Status SyncWal();

  /// Kills volatile log state after a simulated device crash+restart —
  /// the log-side half of the "volatile state dies with the crash" rule
  /// (BufferPool::DiscardAll is the page-side half). Must run before any
  /// post-crash SyncWal()/Converge(), or the stale staged tail would be
  /// written back to the restarted device and resurrect transactions the
  /// crash already lost.
  Status DiscardVolatileWal();

  /// Brings the system to a fully-consistent, fully-refreshed state
  /// (healthy device assumed): recovery plus whatever freshening the
  /// strategy needs (deferred/hybrid refresh, snapshot re-snapshot).
  Status Converge();

  /// Transaction ids issued / known committed — the ambiguity-resolution
  /// pair: an errored OnTransaction whose txn_seq() advanced is resolved,
  /// after a successful Recover(), by committed_txn_high_water() >= id.
  uint64_t txn_seq() const;
  uint64_t committed_txn_high_water() const;

  /// The base-relation contents a reader is entitled to see: the base
  /// itself, or base ∪ AD through the hypothetical relation for
  /// deferred/hybrid (whose transactions live in the differential until a
  /// fold).
  Status VisibleBase(ViewMultiset* out) const;

  uint64_t recoveries() const;
  uint64_t degraded_queries() const;

  storage::FaultyDisk* disk() { return &disk_; }
  storage::BufferPool* pool() { return &pool_; }
  /// The driver-owned tracker (model clock + cost counters). The server
  /// takes each op's cost as the tracker delta across it.
  storage::CostTracker* tracker() { return &tracker_; }
  db::Relation* base() { return rel_; }
  workload::Scenario* scenario() { return &scenario_; }
  const view::SelectProjectDef& sp_def() const { return sp_def_; }
  const view::JoinDef& join_def() const { return join_def_; }
  /// Null when the driver is not durable.
  db::RecoveryManager* recovery() { return recovery_.get(); }
  int model() const { return options_.model; }
  /// True for the strategies that commit through their AD log and run the
  /// journaled refresh protocol (deferred, hybrid) rather than committing
  /// through recovery().
  bool journaled() const {
    return options_.kind == StrategyKind::kDeferred ||
           options_.kind == StrategyKind::kHybrid;
  }

 private:
  explicit StrategyDriver(const Options& options);

  Status Build();

  Options options_;
  storage::CostTracker tracker_;
  storage::SimulatedDisk inner_;
  storage::FaultyDisk disk_;
  storage::BufferPool pool_;
  db::Catalog catalog_;
  workload::Scenario scenario_;
  db::Relation* rel_ = nullptr;
  db::Relation* r2_ = nullptr;
  view::SelectProjectDef sp_def_;
  view::JoinDef join_def_;

  std::unique_ptr<db::RecoveryManager> recovery_;
  std::unique_ptr<view::ViewStrategy> strategy_;
  /// strategy_ when it is a snapshot, else null: Query() refreshes it first.
  view::SnapshotStrategy* snapshot_ = nullptr;
};

}  // namespace viewmat::sim

#endif  // VIEWMAT_SIM_STRATEGY_DRIVER_H_
