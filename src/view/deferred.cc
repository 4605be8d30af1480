#include "view/deferred.h"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::view {

using storage::CrashPoint;

DeferredStrategy::DeferredStrategy(SelectProjectDef def,
                                   hr::AdFile::Options ad_options,
                                   storage::CostTracker* tracker)
    : def_(std::move(def)),
      tracker_(tracker),
      screen_(MakeScreen(def_, tracker)),
      hr_(UpdatedRelation(def_), ad_options) {
  VIEWMAT_CHECK(std::get<SelectProjectDef>(def_).Validate().ok());
  view_ = MakeView(def_, "deferred_view");
}

DeferredStrategy::DeferredStrategy(JoinDef def, hr::AdFile::Options ad_options,
                                   storage::CostTracker* tracker)
    : def_(std::move(def)),
      tracker_(tracker),
      screen_(MakeScreen(def_, tracker)),
      hr_(UpdatedRelation(def_), ad_options) {
  VIEWMAT_CHECK(std::get<JoinDef>(def_).Validate().ok());
  view_ = MakeView(def_, "deferred_view");
}

Status DeferredStrategy::InitializeFromBase() {
  VIEWMAT_RETURN_IF_ERROR(view_->Clear());
  Status inner = Status::OK();
  VIEWMAT_RETURN_IF_ERROR(UpdatedRelation(def_)->Scan(
      ViewInserter(def_, tracker_, view_.get(), &inner)));
  return inner;
}

Status DeferredStrategy::OnTransaction(const db::Transaction& txn) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kUpdateApply);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "txn");
  const db::NetChange& net = txn.ChangesFor(UpdatedRelation(def_));
  if (net.empty()) return Status::OK();
  if (crash_safe() &&
      (phase_ == RecoveryPhase::kNeedFold ||
       phase_ == RecoveryPhase::kNeedReset || hr_.ad().needs_recovery())) {
    // Once the fold has started (or the AD file is untrusted), new intents
    // cannot be mixed into the half-applied epoch: roll forward first, and
    // reject the transaction if the device will not let us.
    const Status recovered = Recover();
    if (!recovered.ok()) {
      return Status::FailedPrecondition(
          "transaction rejected: interrupted refresh could not be rolled "
          "forward (" +
          recovered.message() + ")");
    }
  }
  // The paper's per-tuple update procedure, I/O #1: read the tuple being
  // modified through the hypothetical relation (Bloom screen, AD probe when
  // admitted, base read).
  for (const db::Tuple& t : net.deletes()) {
    VIEWMAT_RETURN_IF_ERROR(hr_.FindAllByKey(
        t.at(UpdatedRelation(def_)->key_field()).AsInt64(),
        [](const db::Tuple&) { return false; }));
  }
  // Screening happens at update time: survivors get their view marker (the
  // mark is re-derivable from the predicate, so no separate store needed —
  // the C1 stage-2 charge happens here, once).
  for (const db::Tuple& t : net.deletes()) screen_.Passes(t);
  for (const db::Tuple& t : net.inserts()) screen_.Passes(t);
  // I/O #2 and #3: land the changes in the AD differential file — through
  // the WAL (intents + commit record) when crash safety is on.
  if (crash_safe()) {
    const Status st = hr_.RecordChangesCommitted(net, ++txn_seq_);
    if (st.ok() && txn_seq_ > committed_txn_high_) {
      committed_txn_high_ = txn_seq_;
    }
    return st;
  }
  return hr_.RecordChanges(net);
}

Status DeferredStrategy::MapNets(const std::vector<db::Tuple>& a_net,
                                 const std::vector<db::Tuple>& d_net,
                                 std::vector<db::Tuple>* view_inserts,
                                 std::vector<db::Tuple>* view_deletes) {
  // Only marked (view-relevant) tuples produce view deltas; Map re-checks
  // the predicate without re-charging the screen.
  for (const db::Tuple& t : d_net) {
    db::Tuple value;
    VIEWMAT_ASSIGN_OR_RETURN(const bool contributes,
                             MapToView(def_, t, &value, tracker_));
    if (contributes) view_deletes->push_back(std::move(value));
  }
  for (const db::Tuple& t : a_net) {
    db::Tuple value;
    VIEWMAT_ASSIGN_OR_RETURN(const bool contributes,
                             MapToView(def_, t, &value, tracker_));
    if (contributes) view_inserts->push_back(std::move(value));
  }
  return Status::OK();
}

Status DeferredStrategy::RefreshUnsafe() {
  if (hr_.ad().entry_count() == 0) return Status::OK();
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kRefresh);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "refresh");
  std::vector<db::Tuple> a_net;
  std::vector<db::Tuple> d_net;
  // One pass over the AD file (C_ADread), fold into the base relation, and
  // reset the differential.
  VIEWMAT_RETURN_IF_ERROR(hr_.Fold(&a_net, &d_net));
  std::vector<db::Tuple> view_inserts;
  std::vector<db::Tuple> view_deletes;
  VIEWMAT_RETURN_IF_ERROR(MapNets(a_net, d_net, &view_inserts, &view_deletes));
  ++refresh_count_;
  return view_->ApplyDelta(view_inserts, view_deletes);
}

Status DeferredStrategy::RefreshSafe() {
  if (hr_.ad().entry_count() == 0) return Status::OK();
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kRefresh);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "refresh");
  storage::BufferPool* pool = UpdatedRelation(def_)->pool();
  storage::DiskInterface* disk = pool->disk();

  // Read-only preparation: scan the nets and map the view deltas. Failure
  // here is a clean abort — nothing durable has changed yet.
  std::vector<db::Tuple> a_net;
  std::vector<db::Tuple> d_net;
  obs::ScopedSpan prepare_span(storage::TracerOf(tracker_), "refresh.prepare");
  VIEWMAT_RETURN_IF_ERROR(hr_.NetChanges(&a_net, &d_net));
  std::vector<db::Tuple> view_inserts;
  std::vector<db::Tuple> view_deletes;
  VIEWMAT_RETURN_IF_ERROR(MapNets(a_net, d_net, &view_inserts, &view_deletes));
  prepare_span.End();
  // Phase 1: patch the view copy. The begin marker is durable before the
  // first view write, so a crash anywhere in here resolves to
  // kNeedViewRebuild.
  VIEWMAT_RETURN_IF_ERROR(hr_.mutable_ad()->LogRefreshBegin(++epoch_));
  phase_ = RecoveryPhase::kNeedViewRebuild;
  obs::ScopedSpan patch_span(storage::TracerOf(tracker_), "refresh.view_patch");
  VIEWMAT_RETURN_IF_ERROR(disk->AtCrashPoint(CrashPoint::kBeforeViewPatch));
  for (const db::Tuple& value : view_deletes) {
    VIEWMAT_RETURN_IF_ERROR(view_->ApplyDelete(value));
  }
  VIEWMAT_RETURN_IF_ERROR(disk->AtCrashPoint(CrashPoint::kMidViewPatch));
  for (const db::Tuple& value : view_inserts) {
    VIEWMAT_RETURN_IF_ERROR(view_->ApplyInsert(value));
  }
  VIEWMAT_RETURN_IF_ERROR(disk->AtCrashPoint(CrashPoint::kAfterViewPatch));
  // The patched-view marker asserts durability, so flush first.
  VIEWMAT_RETURN_IF_ERROR(pool->FlushAll());
  VIEWMAT_RETURN_IF_ERROR(hr_.mutable_ad()->LogViewPatched(epoch_));
  patch_span.End();
  phase_ = RecoveryPhase::kNeedFold;

  // Phase 2: fold the base and retire the differential. The first
  // execution can fold strictly; only roll-forward needs idempotence.
  return FoldAndReset(a_net, d_net, /*idempotent=*/false);
}

Status DeferredStrategy::FoldAndReset(const std::vector<db::Tuple>& a_net,
                                      const std::vector<db::Tuple>& d_net,
                                      bool idempotent) {
  storage::BufferPool* pool = UpdatedRelation(def_)->pool();
  storage::DiskInterface* disk = pool->disk();
  obs::ScopedSpan fold_span(storage::TracerOf(tracker_), "refresh.fold");
  VIEWMAT_RETURN_IF_ERROR(disk->AtCrashPoint(CrashPoint::kBeforeFold));
  static const std::vector<db::Tuple> kEmpty;
  VIEWMAT_RETURN_IF_ERROR(hr_.FoldNoReset(kEmpty, d_net, idempotent));
  VIEWMAT_RETURN_IF_ERROR(disk->AtCrashPoint(CrashPoint::kMidFold));
  VIEWMAT_RETURN_IF_ERROR(hr_.FoldNoReset(a_net, kEmpty, idempotent));
  VIEWMAT_RETURN_IF_ERROR(pool->FlushAll());
  VIEWMAT_RETURN_IF_ERROR(hr_.mutable_ad()->LogFoldCommit(epoch_));
  fold_span.End();
  phase_ = RecoveryPhase::kNeedReset;
  return FinishReset();
}

Status DeferredStrategy::FinishReset() {
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "refresh.ad_reset");
  storage::DiskInterface* disk = UpdatedRelation(def_)->pool()->disk();
  VIEWMAT_RETURN_IF_ERROR(disk->AtCrashPoint(CrashPoint::kBeforeAdReset));
  // Reset clears the hash file and Bloom filter and truncates the WAL
  // (removing the epoch's markers: the refresh is no longer "in flight").
  VIEWMAT_RETURN_IF_ERROR(hr_.mutable_ad()->Reset());
  phase_ = RecoveryPhase::kNone;
  ++refresh_count_;
  return Status::OK();
}

Status DeferredStrategy::RebuildViewAndFold() {
  storage::BufferPool* pool = UpdatedRelation(def_)->pool();
  storage::DiskInterface* disk = pool->disk();
  // Re-begin under a fresh epoch: the old epoch's begin marker stays in the
  // log but is superseded as "newest begun".
  VIEWMAT_RETURN_IF_ERROR(hr_.mutable_ad()->LogRefreshBegin(++epoch_));
  phase_ = RecoveryPhase::kNeedViewRebuild;
  VIEWMAT_RETURN_IF_ERROR(disk->AtCrashPoint(CrashPoint::kBeforeViewPatch));
  // The view copy may be partially patched in an unknowable way: rebuild it
  // from the hypothetical relation, which still holds the complete state
  // (base untouched + all committed intents, including transactions
  // accepted while degraded).
  VIEWMAT_RETURN_IF_ERROR(view_->Clear());
  Status inner = Status::OK();
  VIEWMAT_RETURN_IF_ERROR(hr_.RangeScanByKey(
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(),
      ViewInserter(def_, tracker_, view_.get(), &inner)));
  VIEWMAT_RETURN_IF_ERROR(inner);
  VIEWMAT_RETURN_IF_ERROR(disk->AtCrashPoint(CrashPoint::kAfterViewPatch));
  VIEWMAT_RETURN_IF_ERROR(pool->FlushAll());
  VIEWMAT_RETURN_IF_ERROR(hr_.mutable_ad()->LogViewPatched(epoch_));
  phase_ = RecoveryPhase::kNeedFold;
  std::vector<db::Tuple> a_net;
  std::vector<db::Tuple> d_net;
  VIEWMAT_RETURN_IF_ERROR(hr_.NetChanges(&a_net, &d_net));
  // The rebuilt view already reflects these nets; the base does not yet.
  // A partial fold from the interrupted epoch may have landed some of them,
  // so fold idempotently.
  return FoldAndReset(a_net, d_net, /*idempotent=*/true);
}

Status DeferredStrategy::RollForward() {
  switch (phase_) {
    case RecoveryPhase::kNone:
      return Status::OK();
    case RecoveryPhase::kNeedViewRebuild:
      return RebuildViewAndFold();
    case RecoveryPhase::kNeedFold: {
      std::vector<db::Tuple> a_net;
      std::vector<db::Tuple> d_net;
      VIEWMAT_RETURN_IF_ERROR(hr_.NetChanges(&a_net, &d_net));
      return FoldAndReset(a_net, d_net, /*idempotent=*/true);
    }
    case RecoveryPhase::kNeedReset:
      return FinishReset();
  }
  return Status::Internal("unreachable recovery phase");
}

Status DeferredStrategy::Recover() {
  if (!crash_safe()) {
    return Status::FailedPrecondition(
        std::string(name()) +
        " strategy has no WAL (AdFile::Options::enable_wal)");
  }
  const storage::ScopedPhase phase_tag(tracker_,
                                       storage::Phase::kRefreshRecovery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "recover");
  ++recoveries_;
  // Rebuild the AD structures from the durable log; everything in memory is
  // distrusted after a crash.
  hr::AdFile::RecoveryInfo info;
  VIEWMAT_RETURN_IF_ERROR(hr_.Recover(&info));
  // The durable log is the authority on what committed: a transaction whose
  // commit append errored ambiguously (write and read-back both failed) is
  // resolved here, by whether its commit record survived. The AD file's
  // durable floor — not this strategy's in-memory high water — is the right
  // base: under group commit the in-memory counter runs ahead of the device,
  // and a crash can lose the buffered tail it already counted.
  committed_txn_high_ = hr_.ad().durable_txn_floor();
  // Derive the interrupted phase from the markers alone. Markers survive
  // only until the epoch-final Reset truncates the log, so any begin marker
  // present denotes an unfinished refresh.
  if (info.last_epoch_begun == 0) {
    phase_ = RecoveryPhase::kNone;
  } else if (info.fold_committed_epoch == info.last_epoch_begun) {
    phase_ = RecoveryPhase::kNeedReset;
  } else if (info.view_patched_epoch == info.last_epoch_begun) {
    phase_ = RecoveryPhase::kNeedFold;
  } else {
    phase_ = RecoveryPhase::kNeedViewRebuild;
  }
  if (info.last_epoch_begun > epoch_) epoch_ = info.last_epoch_begun;
  return RollForward();
}

Status DeferredStrategy::ScanVisibleBase(
    const db::Relation* /*base*/,
    const db::Relation::TupleVisitor& visit) const {
  return hr_.RangeScanByKey(std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(), visit);
}

Status DeferredStrategy::Refresh() {
  if (!crash_safe()) return RefreshUnsafe();
  // Recovery completes the interrupted epoch but does not fold intents that
  // were never part of it (committed before the crash with no refresh in
  // flight, or accepted after the fold committed) — they are back in the AD
  // file after replay, so a normal refresh must still follow.
  if (stale()) VIEWMAT_RETURN_IF_ERROR(Recover());
  return RefreshSafe();
}

Status DeferredStrategy::QueryViaModification(
    int64_t lo, int64_t hi, const MaterializedView::CountedVisitor& visit) {
  const size_t vkey = view_->view_key_field();
  Status inner = Status::OK();
  VIEWMAT_RETURN_IF_ERROR(hr_.RangeScanByKey(
      std::numeric_limits<int64_t>::min(),
      std::numeric_limits<int64_t>::max(), [&](const db::Tuple& t) {
        if (tracker_ != nullptr) tracker_->ChargeTupleCpu();
        db::Tuple value;
        auto mapped = MapToView(def_, t, &value, tracker_);
        if (!mapped.ok()) {
          inner = mapped.status();
          return false;
        }
        if (!*mapped) return true;
        const int64_t k = value.at(vkey).AsInt64();
        if (k < lo || k > hi) return true;
        return visit(value, 1);
      }));
  return inner;
}

Status DeferredStrategy::DegradedQuery(
    int64_t lo, int64_t hi, const MaterializedView::CountedVisitor& visit) {
  // Reading anything requires a trustworthy AD file; rebuilding it from the
  // log is cheap and does not run the (failing) refresh protocol.
  if (hr_.ad().needs_recovery()) {
    hr::AdFile::RecoveryInfo info;
    VIEWMAT_RETURN_IF_ERROR(hr_.Recover(&info));
  }
  ++degraded_queries_;
  switch (phase_) {
    case RecoveryPhase::kNone:
    case RecoveryPhase::kNeedViewRebuild:
      // The base is untouched by the interrupted epoch: query modification
      // over base ∪ AD is exact.
      return QueryViaModification(lo, hi, visit);
    case RecoveryPhase::kNeedFold:
    case RecoveryPhase::kNeedReset:
      // The view copy is fully patched for the epoch (it reflects
      // base ∪ AD); QM would double-count whatever a partial fold already
      // moved into the base. Serve the copy.
      return view_->Query(lo, hi, visit);
  }
  return Status::Internal("unreachable recovery phase");
}

Status DeferredStrategy::Query(int64_t lo, int64_t hi,
                               const MaterializedView::CountedVisitor& visit) {
  const storage::ScopedPhase phase_tag(tracker_, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker_), "query");
  if (!crash_safe()) {
    VIEWMAT_RETURN_IF_ERROR(Refresh());
    return view_->Query(lo, hi, visit);
  }
  // Bounded retry: transient faults are ridden out by re-driving recovery;
  // a persistently failing device falls through to the degraded read.
  Status st = Status::OK();
  for (int attempt = 0; attempt < kMaxRecoveryAttempts; ++attempt) {
    st = Refresh();
    if (st.ok()) return view_->Query(lo, hi, visit);
  }
  return DegradedQuery(lo, hi, visit);
}

}  // namespace viewmat::view
