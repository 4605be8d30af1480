#ifndef VIEWMAT_VIEW_QUERY_MODIFICATION_H_
#define VIEWMAT_VIEW_QUERY_MODIFICATION_H_

#include "common/status.h"
#include "storage/cost_tracker.h"
#include "view/strategy.h"
#include "view/view_def.h"

namespace viewmat::view {

/// Query modification [Ston75] for Model 1 views: no copy is kept; each
/// view query is rewritten into a query over the base relation. The access
/// plan follows the base relation's organization:
///  - clustered B+-tree on the predicate field -> clustered range scan
///    (TOTAL_clustered);
///  - heap with an unclustered key index      -> secondary index fetches
///    (TOTAL_unclustered, y(N, b, ...) page reads);
///  - anything else, or force_sequential      -> full scan
///    (TOTAL_sequential).
/// Every tuple touched is screened against the view predicate at C1.
///
/// Crash recovery is the ViewStrategy default for both QM strategies: they
/// keep no materialized state, so recovering the base relations is the
/// whole job — afterwards every query is correct again.
class QmSelectProjectStrategy : public ViewStrategy {
 public:
  QmSelectProjectStrategy(SelectProjectDef def, storage::CostTracker* tracker,
                          bool force_sequential = false);

  Status OnTransaction(const db::Transaction& txn) override;
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "query-modification"; }

 private:
  SelectProjectDef def_;
  storage::CostTracker* tracker_;
  bool force_sequential_;
};

/// Query modification for Model 2 views: nested-loops join with R1 outer
/// (clustered scan of the restricted, queried key range) and R2 inner via
/// its hash index, relying on the buffer pool to keep R2 pages resident
/// (§3.4.3's large-main-memory assumption). Requires the view key to be
/// R1's clustering field so a view-key range maps directly to an R1 range.
class QmJoinStrategy : public ViewStrategy {
 public:
  QmJoinStrategy(JoinDef def, storage::CostTracker* tracker);

  Status OnTransaction(const db::Transaction& txn) override;
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "query-modification-loopjoin"; }

 private:
  JoinDef def_;
  storage::CostTracker* tracker_;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_QUERY_MODIFICATION_H_
