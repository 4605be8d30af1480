#include "view/immediate.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::view {

namespace {

TLockScreen MakeScreen(const std::variant<SelectProjectDef, JoinDef>& def,
                       storage::CostTracker* tracker) {
  if (std::holds_alternative<SelectProjectDef>(def)) {
    return TLockScreen::ForSelectProject(std::get<SelectProjectDef>(def),
                                         tracker);
  }
  return TLockScreen::ForJoin(std::get<JoinDef>(def), tracker);
}

std::unique_ptr<MaterializedView> MakeView(
    const std::variant<SelectProjectDef, JoinDef>& def,
    const std::string& name) {
  if (std::holds_alternative<SelectProjectDef>(def)) {
    const auto& sp = std::get<SelectProjectDef>(def);
    return std::make_unique<MaterializedView>(sp.base->pool(), name,
                                              sp.ViewSchema(),
                                              sp.view_key_field);
  }
  const auto& j = std::get<JoinDef>(def);
  return std::make_unique<MaterializedView>(j.r1->pool(), name,
                                            j.ViewSchema(), j.view_key_field);
}

}  // namespace

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

db::Relation* ImmediateStrategy::UpdatedRelation() const {
  if (std::holds_alternative<SelectProjectDef>(def_)) {
    return std::get<SelectProjectDef>(def_).base;
  }
  return std::get<JoinDef>(def_).r1;
}

StatusOr<bool> ImmediateStrategy::Map(const db::Tuple& t, db::Tuple* out) {
  if (std::holds_alternative<SelectProjectDef>(def_)) {
    return std::get<SelectProjectDef>(def_).MapTuple(t, out);
  }
  return std::get<JoinDef>(def_).MapTuple(t, out, tracker_);
}

Status ImmediateStrategy::InitializeFromBase() {
  VIEWMAT_RETURN_IF_ERROR(view_->Clear());
  Status inner = Status::OK();
  VIEWMAT_RETURN_IF_ERROR(UpdatedRelation()->Scan([&](const db::Tuple& t) {
    db::Tuple value;
    auto mapped = Map(t, &value);
    if (!mapped.ok()) {
      inner = mapped.status();
      return false;
    }
    if (*mapped) {
      inner = view_->ApplyInsert(value);
      if (!inner.ok()) return false;
    }
    return true;
  }));
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
  const db::NetChange& net = txn.ChangesFor(UpdatedRelation());
  if (net.empty()) return Status::OK();

  std::vector<db::Tuple> view_inserts;
  std::vector<db::Tuple> view_deletes;
  for (const db::Tuple& t : net.deletes()) {
    if (!screen_.Passes(t)) continue;
    if (tracker_ != nullptr) tracker_->ChargeAdSetOp();  // D-set upkeep (C3)
    db::Tuple value;
    VIEWMAT_ASSIGN_OR_RETURN(const bool contributes, Map(t, &value));
    if (contributes) view_deletes.push_back(std::move(value));
  }
  for (const db::Tuple& t : net.inserts()) {
    if (!screen_.Passes(t)) continue;
    if (tracker_ != nullptr) tracker_->ChargeAdSetOp();  // A-set upkeep (C3)
    db::Tuple value;
    VIEWMAT_ASSIGN_OR_RETURN(const bool contributes, Map(t, &value));
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
