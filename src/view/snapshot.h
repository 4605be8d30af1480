#ifndef VIEWMAT_VIEW_SNAPSHOT_H_
#define VIEWMAT_VIEW_SNAPSHOT_H_

#include <cstdint>

#include "common/status.h"
#include "storage/cost_tracker.h"
#include "view/materialized_view.h"
#include "view/strategy.h"
#include "view/view_def.h"

namespace viewmat::view {

/// Database snapshots [Adib80, Lind86] — the third related-work scheme §1
/// surveys: a stored copy of a selection-projection view refreshed by full
/// recomputation on a fixed period, with *stale reads allowed* between
/// refreshes. Unlike the incremental strategies, a snapshot needs no
/// screening, no differential files, and no per-transaction work at all —
/// the price is bounded staleness and a periodic full-recompute bill.
class SnapshotStrategy : public ViewStrategy {
 public:
  struct Options {
    /// Queries between refreshes. 1 degenerates to recompute-per-query;
    /// large values trade staleness for cost.
    uint64_t refresh_every_queries = 10;
  };

  SnapshotStrategy(SelectProjectDef def, Options options,
                   storage::CostTracker* tracker);

  /// Builds the first snapshot (counts as refresh #1).
  Status InitializeFromBase();

  Status OnTransaction(const db::Transaction& txn) override;
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "snapshot"; }

  /// Forces a refresh now (e.g. from an idle-time daemon).
  Status RefreshNow();
  Status Refresh() override { return RefreshNow(); }

  /// Crash recovery: completes partially-applied committed transactions,
  /// then rebuilds the snapshot (a crash mid-RefreshNow leaves the copy
  /// partially rebuilt, and a snapshot's only repair is a fresh snapshot).
  Status Recover() override;

  /// Transactions committed since the last refresh — the staleness bound a
  /// reader currently observes.
  uint64_t stale_transactions() const { return stale_transactions_; }
  uint64_t refresh_count() const { return refresh_count_; }
  uint64_t queries_since_refresh() const { return queries_since_refresh_; }

 private:
  SelectProjectDef def_;
  Options options_;
  storage::CostTracker* tracker_;
  std::unique_ptr<MaterializedView> view_;
  uint64_t stale_transactions_ = 0;
  uint64_t refresh_count_ = 0;
  uint64_t queries_since_refresh_ = 0;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_SNAPSHOT_H_
