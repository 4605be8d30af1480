#ifndef VIEWMAT_VIEW_RECOMPUTE_ON_CHANGE_H_
#define VIEWMAT_VIEW_RECOMPUTE_ON_CHANGE_H_

#include "common/status.h"
#include "storage/cost_tracker.h"
#include "view/materialized_view.h"
#include "view/screening_modes.h"
#include "view/strategy.h"
#include "view/view_def.h"

namespace viewmat::view {

/// The Buneman-Clemons scheme [Bune79] §1 describes as the fourth refresh
/// algorithm: analyze each update command *before* execution; if the
/// system cannot rule out that it alters the view (the command is not a
/// readily ignorable update and at least one tuple survives the run-time
/// screen), the view is **completely recomputed** — there is no
/// incremental patching. Cheap when almost all commands are ignorable,
/// brutal otherwise; exactly the trade-off the screening ablation bench
/// quantifies.
class RecomputeOnChangeStrategy : public ViewStrategy {
 public:
  RecomputeOnChangeStrategy(SelectProjectDef def,
                            storage::CostTracker* tracker);

  Status InitializeFromBase();

  Status OnTransaction(const db::Transaction& txn) override;
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "recompute-on-change"; }

  /// Crash recovery: completes partially-applied committed transactions and
  /// marks the view dirty, so the next query recomputes from the recovered
  /// base — [Bune79]'s own refresh rule doubles as its crash repair.
  Status Recover() override;

  uint64_t recompute_count() const { return recompute_count_; }
  uint64_t ignored_transactions() const { return ignored_transactions_; }
  const UpdateScreen& screen() const { return screen_; }

 private:
  Status Recompute();

  SelectProjectDef def_;
  storage::CostTracker* tracker_;
  UpdateScreen screen_;
  std::unique_ptr<MaterializedView> view_;
  bool dirty_ = false;
  uint64_t recompute_count_ = 0;
  uint64_t ignored_transactions_ = 0;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_RECOMPUTE_ON_CHANGE_H_
