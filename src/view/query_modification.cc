#include "view/query_modification.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::view {

QmSelectProjectStrategy::QmSelectProjectStrategy(
    SelectProjectDef def, storage::CostTracker* tracker,
    bool force_sequential)
    : def_(std::move(def)),
      tracker_(tracker),
      force_sequential_(force_sequential) {
  VIEWMAT_CHECK(def_.Validate().ok());
  // A key-range query is only meaningful when the view clusters on the
  // base relation's key field.
  VIEWMAT_CHECK(def_.BaseKeyField() == def_.base->key_field());
}

Status QmSelectProjectStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  // No materialized copy: updates flow straight to the base relations
  // (atomically, through the WAL, when a recovery manager is attached).
  return CommitToBase(txn);
}

Status QmSelectProjectStrategy::Query(
    int64_t lo, int64_t hi, const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  // Modified query: σ_{X ∧ key∈[lo,hi]}(R), projected. Each value is
  // emitted with count 1; projection duplicates appear as repeated values.
  auto emit = [&](const db::Tuple& base_tuple) {
    if (tracker_ != nullptr) tracker_->ChargeTupleCpu();  // predicate screen
    db::Tuple value;
    if (!def_.MapTuple(base_tuple, &value)) return true;
    return visit(value, 1);
  };
  const bool sequential =
      force_sequential_ ||
      def_.base->method() == db::AccessMethod::kClusteredHash;
  if (sequential) {
    const size_t key_field = def_.base->key_field();
    return def_.base->Scan([&](const db::Tuple& t) {
      const int64_t key = t.at(key_field).AsInt64();
      if (key < lo || key > hi) {
        if (tracker_ != nullptr) tracker_->ChargeTupleCpu();
        return true;
      }
      return emit(t);
    });
  }
  // Clustered (B+-tree) or unclustered (heap + secondary) range plan.
  return def_.base->RangeScanByKey(lo, hi, emit);
}

QmJoinStrategy::QmJoinStrategy(JoinDef def, storage::CostTracker* tracker)
    : def_(std::move(def)), tracker_(tracker) {
  VIEWMAT_CHECK(def_.Validate().ok());
  // The view-key range must map onto R1's clustering field: the view key is
  // the view_key_field-th projected column and must come from R1.
  VIEWMAT_CHECK(def_.view_key_field < def_.r1_projection.size());
  VIEWMAT_CHECK(def_.r1_projection[def_.view_key_field] ==
                def_.r1->key_field());
}

Status QmJoinStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  return CommitToBase(txn);
}

Status QmJoinStrategy::Query(int64_t lo, int64_t hi,
                             const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  // Nested loops: outer = clustered scan of R1 restricted to the queried
  // key range; inner = hash probe into R2 per surviving outer tuple.
  return def_.r1->RangeScanByKey(lo, hi, [&](const db::Tuple& r1_tuple) {
    if (tracker_ != nullptr) tracker_->ChargeTupleCpu();  // screen vs C_f
    db::Tuple value;
    auto mapped = def_.MapTuple(r1_tuple, &value, tracker_);
    if (!mapped.ok() || !*mapped) return true;
    return visit(value, 1);
  });
}

}  // namespace viewmat::view
