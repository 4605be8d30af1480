#include "view/immediate.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::view {

ImmediateStrategy::ImmediateStrategy(SelectProjectDef def,
                                     storage::CostTracker* tracker)
    : def_(std::move(def)),
      tracker_(tracker),
      screen_(MakeScreen(def_, tracker)) {
  VIEWMAT_CHECK(std::get<SelectProjectDef>(def_).Validate().ok());
  view_ = MakeView(def_, "immediate_view");
}

ImmediateStrategy::ImmediateStrategy(JoinDef def,
                                     storage::CostTracker* tracker)
    : def_(std::move(def)),
      tracker_(tracker),
      screen_(MakeScreen(def_, tracker)) {
  VIEWMAT_CHECK(std::get<JoinDef>(def_).Validate().ok());
  view_ = MakeView(def_, "immediate_view");
}

Status ImmediateStrategy::InitializeFromBase() {
  VIEWMAT_RETURN_IF_ERROR(view_->Clear());
  Status inner = Status::OK();
  VIEWMAT_RETURN_IF_ERROR(UpdatedRelation(def_)->Scan(
      ViewInserter(def_, tracker_, view_.get(), &inner)));
  return inner;
}

Status ImmediateStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  if (needs_recovery()) {
    return Status::FailedPrecondition(
        "immediate strategy needs Recover() before new transactions");
  }
  // The transaction commits against the base relations first — atomically,
  // when a recovery manager is attached.
  VIEWMAT_RETURN_IF_ERROR(CommitToBase(txn));
  // From here the base holds the transaction; any failure before the view
  // patch completes leaves the copy behind it.
  Status patched = PatchView(txn);
  if (!patched.ok() && recovery_ != nullptr) view_dirty_ = true;
  return patched;
}

Status ImmediateStrategy::PatchView(const db::Transaction& txn) {
  const db::NetChange& net = txn.ChangesFor(UpdatedRelation(def_));
  if (net.empty()) return Status::OK();

  std::vector<db::Tuple> view_inserts;
  std::vector<db::Tuple> view_deletes;
  for (const db::Tuple& t : net.deletes()) {
    if (!screen_.Passes(t)) continue;
    if (tracker_ != nullptr) tracker_->ChargeAdSetOp();  // D-set upkeep (C3)
    db::Tuple value;
    VIEWMAT_ASSIGN_OR_RETURN(const bool contributes,
                             MapToView(def_, t, &value, tracker_));
    if (contributes) view_deletes.push_back(std::move(value));
  }
  for (const db::Tuple& t : net.inserts()) {
    if (!screen_.Passes(t)) continue;
    if (tracker_ != nullptr) tracker_->ChargeAdSetOp();  // A-set upkeep (C3)
    db::Tuple value;
    VIEWMAT_ASSIGN_OR_RETURN(const bool contributes,
                             MapToView(def_, t, &value, tracker_));
    if (contributes) view_inserts.push_back(std::move(value));
  }
  ++refresh_count_;
  return view_->ApplyDelta(view_inserts, view_deletes);
}

Status ImmediateStrategy::Recover() {
  VIEWMAT_RETURN_IF_ERROR(ViewStrategy::Recover());
  VIEWMAT_RETURN_IF_ERROR(InitializeFromBase());
  view_dirty_ = false;
  return Status::OK();
}

Status ImmediateStrategy::Query(int64_t lo, int64_t hi,
                                const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  if (needs_recovery()) {
    return Status::FailedPrecondition(
        "immediate strategy needs Recover() before queries");
  }
  // The copy is always current: a query is a plain clustered view scan.
  return view_->Query(lo, hi, visit);
}

}  // namespace viewmat::view
