#ifndef VIEWMAT_VIEW_IMMEDIATE_H_
#define VIEWMAT_VIEW_IMMEDIATE_H_

#include "common/status.h"
#include "storage/cost_tracker.h"
#include "view/materialized_view.h"
#include "view/screening.h"
#include "view/strategy.h"
#include "view/tuple_view.h"
#include "view/view_def.h"

namespace viewmat::view {

/// Immediate view maintenance (§2.1, after [Blak86]): a materialized copy
/// of the view is refreshed at the end of every update transaction using
/// the differential algorithm with duplicate counts. Update tuples are
/// screened with t-lock rule indexing; survivors are mapped into view
/// deltas (joining through R2's hash index for Model 2) and applied to the
/// stored copy. The in-memory A/D structures are reset each transaction,
/// charged at C3 per relevant tuple (the paper's C_overhead).
class ImmediateStrategy : public ViewStrategy {
 public:
  ImmediateStrategy(SelectProjectDef def, storage::CostTracker* tracker);
  ImmediateStrategy(JoinDef def, storage::CostTracker* tracker);

  /// Builds the stored copy from the current base state. Run once before
  /// the measured workload; reset the tracker afterwards to exclude it.
  Status InitializeFromBase();

  Status OnTransaction(const db::Transaction& txn) override;
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "immediate"; }

  /// Crash recovery: completes any partially-applied committed transaction
  /// via RecoveryManager::Recover(), then rebuilds the stored copy from the
  /// recovered base (a crash between the base commit and the view patch
  /// leaves the copy behind the base; immediate maintenance keeps no
  /// differential to patch from, so the copy is recomputed).
  Status Recover() override;

  /// True when the stored copy may lag the base (failure after a durable
  /// commit) and Recover() must run before queries are trustworthy.
  bool needs_recovery() const {
    return view_dirty_ ||
           (recovery_ != nullptr && recovery_->needs_recovery());
  }

  MaterializedView* view() { return view_.get(); }
  const TLockScreen& screen() const { return screen_; }
  uint64_t refresh_count() const { return refresh_count_; }

 private:
  /// Screens and applies one transaction's delta to the stored copy.
  Status PatchView(const db::Transaction& txn);

  TupleViewDef def_;
  storage::CostTracker* tracker_;
  TLockScreen screen_;
  std::unique_ptr<MaterializedView> view_;
  uint64_t refresh_count_ = 0;
  /// The base advanced (durable commit) but the view patch did not finish.
  bool view_dirty_ = false;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_IMMEDIATE_H_
