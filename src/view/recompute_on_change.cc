#include "view/recompute_on_change.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::view {

RecomputeOnChangeStrategy::RecomputeOnChangeStrategy(
    SelectProjectDef def, storage::CostTracker* tracker)
    : def_(std::move(def)),
      tracker_(tracker),
      screen_(ScreeningMode::kRiu, def_.predicate, def_.base->key_field(),
              FieldsRead(def_), tracker) {
  VIEWMAT_CHECK(def_.Validate().ok());
  view_ = std::make_unique<MaterializedView>(
      def_.base->pool(), "roc_view", def_.ViewSchema(), def_.view_key_field);
}

Status RecomputeOnChangeStrategy::InitializeFromBase() {
  dirty_ = true;
  return Recompute();
}

Status RecomputeOnChangeStrategy::Recompute() {
  if (!dirty_) return Status::OK();
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kRefresh);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "recompute");
  VIEWMAT_RETURN_IF_ERROR(view_->Clear());
  Status inner = Status::OK();
  VIEWMAT_RETURN_IF_ERROR(def_.base->Scan([&](const db::Tuple& t) {
    if (tracker_ != nullptr) tracker_->ChargeTupleCpu();
    db::Tuple value;
    if (def_.MapTuple(t, &value)) {
      inner = view_->ApplyInsert(value);
      if (!inner.ok()) return false;
    }
    return true;
  }));
  VIEWMAT_RETURN_IF_ERROR(inner);
  ++recompute_count_;
  dirty_ = false;
  return Status::OK();
}

Status RecomputeOnChangeStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  VIEWMAT_RETURN_IF_ERROR(CommitToBase(txn));
  const db::NetChange& net = txn.ChangesFor(def_.base);
  if (net.empty()) return Status::OK();
  // Phase 1 (compile time): readily ignorable commands cost nothing more.
  if (screen_.TransactionIsIgnorable(net)) {
    ++ignored_transactions_;
    return Status::OK();
  }
  // Phase 2 (run time): if any tuple may affect the view, mark it dirty —
  // [Bune79] recomputes rather than patches.
  for (const db::Tuple& t : net.deletes()) {
    if (screen_.Passes(t)) {
      dirty_ = true;
    }
  }
  for (const db::Tuple& t : net.inserts()) {
    if (screen_.Passes(t)) {
      dirty_ = true;
    }
  }
  return Status::OK();
}

Status RecomputeOnChangeStrategy::Query(
    int64_t lo, int64_t hi, const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  VIEWMAT_RETURN_IF_ERROR(Recompute());
  return view_->Query(lo, hi, visit);
}

Status RecomputeOnChangeStrategy::Recover() {
  VIEWMAT_RETURN_IF_ERROR(ViewStrategy::Recover());
  // A crash may have interrupted a recompute (partially rebuilt copy) or a
  // screened-out delta may have landed during redo; recomputing is the
  // strategy's uniform answer.
  dirty_ = true;
  return Status::OK();
}

}  // namespace viewmat::view
