#include "view/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::view {

void AggregateState::ApplyInsert(double v) {
  switch (op_) {
    case AggregateOp::kMin:
      value_ = count_ == 0 ? v : std::min(value_, v);
      break;
    case AggregateOp::kMax:
      value_ = count_ == 0 ? v : std::max(value_, v);
      break;
    default:
      value_ += v;
  }
  ++count_;
}

bool AggregateState::ApplyDelete(double v) {
  VIEWMAT_CHECK_MSG(count_ > 0, "deleting from an empty aggregate");
  if (--count_ == 0) {
    value_ = 0.0;  // cancel floating-point drift at the empty state
    exact_ = true;
    return true;
  }
  switch (op_) {
    // The extremum may have left the set; only a recomputation can tell.
    case AggregateOp::kMin:
      if (v <= value_) exact_ = false;
      break;
    case AggregateOp::kMax:
      if (v >= value_) exact_ = false;
      break;
    default:
      value_ -= v;
  }
  return exact_;
}

StatusOr<db::Value> AggregateState::Current() const {
  if (!exact_) {
    return Status::FailedPrecondition("aggregate state needs recomputation");
  }
  switch (op_) {
    case AggregateOp::kCount:
      return db::Value(count_);
    case AggregateOp::kSum:
      return db::Value(value_);
    case AggregateOp::kAvg:
      if (count_ == 0) return Status::NotFound("avg of empty set");
      return db::Value(value_ / static_cast<double>(count_));
    case AggregateOp::kMin:
      if (count_ == 0) return Status::NotFound("min of empty set");
      return db::Value(value_);
    case AggregateOp::kMax:
      if (count_ == 0) return Status::NotFound("max of empty set");
      return db::Value(value_);
  }
  return Status::Internal("unreachable");
}

void AggregateState::Serialize(uint8_t* out) const {
  std::memcpy(out, &count_, 8);
  std::memcpy(out + 8, &value_, 8);
}

AggregateState AggregateState::Deserialize(AggregateOp op, const uint8_t* in) {
  AggregateState s(op);
  std::memcpy(&s.count_, in, 8);
  std::memcpy(&s.value_, in + 8, 8);
  return s;
}

bool operator==(const AggregateState& a, const AggregateState& b) {
  return a.op_ == b.op_ && a.count_ == b.count_ && a.value_ == b.value_ &&
         a.exact_ == b.exact_;
}

namespace {

/// The state page: a header (group count, op byte, spare), then one
/// (group, state) record per group.
constexpr uint32_t kHeaderSize = 8;
constexpr uint32_t kRecordSize = 8 + AggregateState::kSerializedSize;

/// A change to the aggregated set: the (group, value) pairs that left it
/// and those that entered it.
struct AggDelta {
  std::vector<std::pair<int64_t, double>> deleted;
  std::vector<std::pair<int64_t, double>> inserted;
  bool empty() const { return inserted.empty() && deleted.empty(); }
};

/// The delta of `net`'s tuples that `relevant` admits.
template <typename Relevant>
AggDelta DeltaOf(const AggregateDef& def, const db::NetChange& net,
                 Relevant relevant) {
  AggDelta delta;
  for (const db::Tuple& t : net.deletes()) {
    if (relevant(t)) {
      delta.deleted.emplace_back(def.GroupOf(t), def.ValueOf(t));
    }
  }
  for (const db::Tuple& t : net.inserts()) {
    if (relevant(t)) {
      delta.inserted.emplace_back(def.GroupOf(t), def.ValueOf(t));
    }
  }
  return delta;
}

/// Applies a delta, deletes first (the differential algorithm's order),
/// and drops the groups it empties. Returns true when a min or max group
/// lost its extremum, so the groups must be rebuilt from the base.
StatusOr<bool> ApplyDelta(const AggDelta& delta, AggregateOp op,
                          AggregateGroups* groups) {
  for (const auto& [group, v] : delta.deleted) {
    const auto it = groups->find(group);
    if (it == groups->end()) {
      return Status::Internal("aggregate delete from the empty group " +
                              std::to_string(group));
    }
    it->second.ApplyDelete(v);
    if (it->second.count() == 0) groups->erase(it);
  }
  for (const auto& [group, v] : delta.inserted) {
    groups->try_emplace(group, op).first->second.ApplyInsert(v);
  }
  return std::any_of(groups->begin(), groups->end(),
                     [](const auto& g) { return !g.second.exact(); });
}

/// Visits one (group, value) tuple, count 1, per group in [lo, hi] that
/// has a value.
Status VisitGroups(const AggregateDef& def, const AggregateGroups& groups,
                   int64_t lo, int64_t hi,
                   const MaterializedView::CountedVisitor& visit) {
  // The ungrouped view is group 0 even over an empty set.
  if (!def.group_field && groups.empty()) {
    return VisitGroups(def, {{0, AggregateState(def.op)}}, lo, hi, visit);
  }
  for (auto it = groups.lower_bound(lo);
       it != groups.end() && it->first <= hi; ++it) {
    StatusOr<db::Value> value = it->second.Current();
    if (value.status().code() == StatusCode::kNotFound) continue;
    VIEWMAT_RETURN_IF_ERROR(value.status());
    if (!visit(db::Tuple({db::Value(it->first), *value}), 1)) break;
  }
  return Status::OK();
}

}  // namespace

MaterializedAggregate::MaterializedAggregate(const AggregateDef& def)
    : disk_(def.base->pool()->disk()),
      op_(def.op),
      page_(disk_->Allocate()) {
  // Initial write is setup, outside the measured workload by convention.
  VIEWMAT_CHECK(Write({}).ok());
}

size_t MaterializedAggregate::capacity() const {
  return (disk_->page_size() - kHeaderSize) / kRecordSize;
}

Status MaterializedAggregate::Read(AggregateGroups* out) const {
  storage::Page pg(disk_->page_size());
  VIEWMAT_RETURN_IF_ERROR(disk_->Read(page_, &pg));
  const uint32_t n = pg.ReadAt<uint32_t>(0);
  if (n > capacity()) {
    return Status::Internal("aggregate page claims " + std::to_string(n) +
                            " groups; it holds " +
                            std::to_string(capacity()));
  }
  if (pg.ReadAt<uint8_t>(4) != static_cast<uint8_t>(op_)) {
    return Status::Internal("aggregate page has a foreign op byte");
  }
  out->clear();
  for (uint32_t i = 0; i < n; ++i) {
    const uint8_t* record = pg.data() + kHeaderSize + i * kRecordSize;
    int64_t group;
    std::memcpy(&group, record, 8);
    const AggregateState state =
        AggregateState::Deserialize(op_, record + 8);
    // Records are stored non-empty and in strictly increasing group order.
    if (state.count() <= 0 ||
        (!out->empty() && group <= out->rbegin()->first)) {
      return Status::Internal("aggregate page record " + std::to_string(i) +
                              " is malformed");
    }
    out->emplace_hint(out->end(), group, state);
  }
  return Status::OK();
}

Status MaterializedAggregate::CheckCapacity(
    const AggregateGroups& groups) const {
  if (groups.size() > capacity()) {
    return Status::ResourceExhausted(
        std::to_string(groups.size()) + " aggregate groups overflow the " +
        std::to_string(capacity()) + "-group state page");
  }
  return Status::OK();
}

Status MaterializedAggregate::Write(const AggregateGroups& groups) {
  VIEWMAT_RETURN_IF_ERROR(CheckCapacity(groups));
  storage::Page pg(disk_->page_size());
  pg.WriteAt<uint32_t>(0, static_cast<uint32_t>(groups.size()));
  pg.WriteAt<uint8_t>(4, static_cast<uint8_t>(op_));
  uint8_t* record = pg.data() + kHeaderSize;
  for (const auto& [group, state] : groups) {
    // Both maintainers rebuild a state that lost its extremum before they
    // write, so only exact states are ever stored.
    VIEWMAT_CHECK(state.exact());
    std::memcpy(record, &group, 8);
    state.Serialize(record + 8);
    record += kRecordSize;
  }
  return disk_->Write(page_, pg);
}

Status ComputeAggregateFromBase(const AggregateDef& def,
                                storage::CostTracker* tracker,
                                AggregateGroups* out) {
  out->clear();
  const size_t key_field = def.base->key_field();
  const db::Interval range = def.predicate->ImpliedRange(key_field);
  auto fold = [&](const db::Tuple& t) {
    if (tracker != nullptr) tracker->ChargeTupleCpu();  // predicate screen
    if (def.predicate->Evaluate(t)) {
      out->try_emplace(def.GroupOf(t), def.op)
          .first->second.ApplyInsert(def.ValueOf(t));
    }
    return true;
  };
  if (!range.Unbounded() &&
      def.base->method() != db::AccessMethod::kClusteredHash) {
    const int64_t lo =
        range.lo ? *range.lo : std::numeric_limits<int64_t>::min();
    const int64_t hi =
        range.hi ? *range.hi : std::numeric_limits<int64_t>::max();
    return def.base->RangeScanByKey(lo, hi, fold);
  }
  return def.base->Scan(fold);
}

ImmediateAggregateStrategy::ImmediateAggregateStrategy(
    AggregateDef def, storage::CostTracker* tracker)
    : def_(std::move(def)),
      tracker_(tracker),
      screen_(UpdateScreen::ForAggregate(def_, tracker)),
      stored_(def_) {
  VIEWMAT_CHECK(def_.Validate().ok());
}

Status ImmediateAggregateStrategy::InitializeFromBase() {
  VIEWMAT_RETURN_IF_ERROR(ComputeAggregateFromBase(def_, nullptr, &groups_));
  return stored_.Write(groups_);
}

Status ImmediateAggregateStrategy::Recompute() {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kRefresh);
  const obs::ScopedSpan span(storage::TracerOf(tracker_),
                             "refresh.recompute");
  ++recompute_count_;
  VIEWMAT_RETURN_IF_ERROR(ComputeAggregateFromBase(def_, tracker_, &groups_));
  return stored_.Write(groups_);
}

Status ImmediateAggregateStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  const db::NetChange& net = txn.ChangesFor(def_.base);
  {
    // A transaction whose groups would overflow the page is refused before
    // it takes effect. The screen passes exactly the tuples the predicate
    // does, so this uncharged dry run applies the delta applied below, and
    // a min/max rebuild would leave the same non-empty groups.
    AggregateGroups dry_run = groups_;
    VIEWMAT_RETURN_IF_ERROR(
        ApplyDelta(DeltaOf(def_, net,
                           [this](const db::Tuple& t) {
                             return def_.predicate->Evaluate(t);
                           }),
                   def_.op, &dry_run)
            .status());
    VIEWMAT_RETURN_IF_ERROR(stored_.CheckCapacity(dry_run));
  }
  VIEWMAT_RETURN_IF_ERROR(CommitToBase(txn));
  const AggDelta delta = DeltaOf(
      def_, net, [this](const db::Tuple& t) { return screen_.Passes(t); });
  if (delta.empty()) return Status::OK();
  VIEWMAT_ASSIGN_OR_RETURN(const bool rebuild,
                           ApplyDelta(delta, def_.op, &groups_));
  if (rebuild) return Recompute();
  // The states are cached in memory; the paper charges one write per
  // transaction that touches the aggregated set.
  return stored_.Write(groups_);
}

Status ImmediateAggregateStrategy::Query(
    int64_t lo, int64_t hi, const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  AggregateGroups groups;
  VIEWMAT_RETURN_IF_ERROR(stored_.Read(&groups));  // C_query3 = C2
  return VisitGroups(def_, groups, lo, hi, visit);
}

DeferredAggregateStrategy::DeferredAggregateStrategy(
    AggregateDef def, hr::AdFile::Options ad_options,
    storage::CostTracker* tracker)
    : def_(std::move(def)),
      tracker_(tracker),
      screen_(UpdateScreen::ForAggregate(def_, tracker)),
      hr_(def_.base, ad_options),
      stored_(def_) {
  VIEWMAT_CHECK(def_.Validate().ok());
}

Status DeferredAggregateStrategy::InitializeFromBase() {
  AggregateGroups groups;
  VIEWMAT_RETURN_IF_ERROR(ComputeAggregateFromBase(def_, nullptr, &groups));
  return stored_.Write(groups);
}

Status DeferredAggregateStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  const db::NetChange& net = txn.ChangesFor(def_.base);
  if (net.empty()) return Status::OK();
  // I/O #1 of the HR update procedure: read the modified tuples.
  for (const db::Tuple& t : net.deletes()) {
    VIEWMAT_RETURN_IF_ERROR(
        hr_.FindAllByKey(t.at(def_.base->key_field()).AsInt64(),
                         [](const db::Tuple&) { return false; }));
  }
  // Screen (and thereby mark) at update time.
  for (const db::Tuple& t : net.deletes()) screen_.Passes(t);
  for (const db::Tuple& t : net.inserts()) screen_.Passes(t);
  return hr_.RecordChanges(net);
}

Status DeferredAggregateStrategy::Query(
    int64_t lo, int64_t hi, const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  AggregateGroups groups;
  VIEWMAT_RETURN_IF_ERROR(stored_.Read(&groups));  // C_query3 = C2
  std::vector<db::Tuple> a_net;
  std::vector<db::Tuple> d_net;
  VIEWMAT_RETURN_IF_ERROR(hr_.NetChanges(&a_net, &d_net));
  db::NetChange folded;
  for (const db::Tuple& t : d_net) folded.AddDelete(t);
  for (const db::Tuple& t : a_net) folded.AddInsert(t);
  // Marked tuples only; the predicate re-check inside the delta is free
  // (stage-2 screening was already charged at update time).
  const AggDelta delta =
      DeltaOf(def_, folded, [this](const db::Tuple& t) {
        return def_.predicate->Evaluate(t);
      });
  VIEWMAT_ASSIGN_OR_RETURN(const bool rebuild,
                           ApplyDelta(delta, def_.op, &groups));
  // The delta leaves the groups a min/max rebuild would, so an overflow
  // shows here, and a refused query keeps the differential pending.
  VIEWMAT_RETURN_IF_ERROR(stored_.CheckCapacity(groups));
  // hr_.Fold's two steps, taken only once the groups are known to fit.
  VIEWMAT_RETURN_IF_ERROR(hr_.FoldNoReset(a_net, d_net, /*idempotent=*/false));
  VIEWMAT_RETURN_IF_ERROR(hr_.mutable_ad()->Reset());
  // After the fold, so the rebuilt states see the folded base.
  if (rebuild) {
    VIEWMAT_RETURN_IF_ERROR(ComputeAggregateFromBase(def_, tracker_, &groups));
  }
  if (!delta.empty()) {
    VIEWMAT_RETURN_IF_ERROR(stored_.Write(groups));  // C_def-refresh3
  }
  return VisitGroups(def_, groups, lo, hi, visit);
}

Status DeferredAggregateStrategy::ScanVisibleBase(
    const db::Relation* /*base*/,
    const db::Relation::TupleVisitor& visit) const {
  return hr_.RangeScanByKey(std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(), visit);
}

RecomputeAggregateStrategy::RecomputeAggregateStrategy(
    AggregateDef def, storage::CostTracker* tracker)
    : def_(std::move(def)), tracker_(tracker) {
  VIEWMAT_CHECK(def_.Validate().ok());
}

Status RecomputeAggregateStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  return CommitToBase(txn);
}

Status RecomputeAggregateStrategy::Query(
    int64_t lo, int64_t hi, const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  AggregateGroups groups;
  VIEWMAT_RETURN_IF_ERROR(ComputeAggregateFromBase(def_, tracker_, &groups));
  return VisitGroups(def_, groups, lo, hi, visit);
}

}  // namespace viewmat::view
