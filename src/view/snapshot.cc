#include "view/snapshot.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::view {

SnapshotStrategy::SnapshotStrategy(SelectProjectDef def, Options options,
                                   storage::CostTracker* tracker)
    : def_(std::move(def)), options_(options), tracker_(tracker) {
  VIEWMAT_CHECK(def_.Validate().ok());
  VIEWMAT_CHECK(options_.refresh_every_queries >= 1);
  view_ = std::make_unique<MaterializedView>(
      def_.base->pool(), "snapshot_view", def_.ViewSchema(),
      def_.view_key_field);
}

Status SnapshotStrategy::InitializeFromBase() {
  return RefreshNow();
}

Status SnapshotStrategy::RefreshNow() {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kRefresh);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "refresh");
  VIEWMAT_RETURN_IF_ERROR(view_->Clear());
  Status inner = Status::OK();
  VIEWMAT_RETURN_IF_ERROR(def_.base->Scan([&](const db::Tuple& t) {
    if (tracker_ != nullptr) tracker_->ChargeTupleCpu();  // predicate screen
    db::Tuple value;
    if (def_.MapTuple(t, &value)) {
      inner = view_->ApplyInsert(value);
      if (!inner.ok()) return false;
    }
    return true;
  }));
  VIEWMAT_RETURN_IF_ERROR(inner);
  ++refresh_count_;
  stale_transactions_ = 0;
  queries_since_refresh_ = 0;
  return Status::OK();
}

Status SnapshotStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  // No screening, no differential, no view work: the defining property of
  // snapshots. The base commits and the snapshot goes stale.
  VIEWMAT_RETURN_IF_ERROR(CommitToBase(txn));
  if (!txn.ChangesFor(def_.base).empty()) ++stale_transactions_;
  return Status::OK();
}

Status SnapshotStrategy::Query(int64_t lo, int64_t hi,
                               const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  if (queries_since_refresh_ >= options_.refresh_every_queries) {
    VIEWMAT_RETURN_IF_ERROR(RefreshNow());
  }
  ++queries_since_refresh_;
  return view_->Query(lo, hi, visit);
}

Status SnapshotStrategy::Recover() {
  VIEWMAT_RETURN_IF_ERROR(ViewStrategy::Recover());
  return RefreshNow();
}

}  // namespace viewmat::view
