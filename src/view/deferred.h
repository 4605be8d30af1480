#ifndef VIEWMAT_VIEW_DEFERRED_H_
#define VIEWMAT_VIEW_DEFERRED_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "hr/hypothetical_relation.h"
#include "storage/cost_tracker.h"
#include "view/materialized_view.h"
#include "view/screening.h"
#include "view/strategy.h"
#include "view/tuple_view.h"
#include "view/view_def.h"

namespace viewmat::view {

/// Where a crash-interrupted refresh left the deferred strategy. Derived
/// from the AD file's durable WAL markers at recovery time, never from
/// in-memory state:
///  - kNeedViewRebuild: a kRefreshBegin has no matching kViewPatched — the
///    member copies may be partially patched and must be rebuilt from the
///    hypothetical relation (base is untouched, so QM over base ∪ AD is the
///    safe degraded read).
///  - kNeedFold: kViewPatched is durable but kFoldCommit is not — every
///    member copy is fully patched; the base fold must be re-run
///    idempotently (the copies themselves are the safe degraded read; QM
///    would double-count tuples a partial fold already landed).
///  - kNeedReset: kFoldCommit is durable — only the AD reset remains.
enum class RecoveryPhase : uint8_t {
  kNone = 0,
  kNeedViewRebuild,
  kNeedFold,
  kNeedReset,
};

/// Deferred view maintenance (§2.2, the paper's proposal): a materialized
/// copy exists, but refresh is postponed until just before a query reads
/// the view. Update transactions are absorbed into the base relation's
/// hypothetical-relation differential (the AD file); tuples are screened at
/// update time with t-lock rule indexing. At query time the accumulated
/// A-net/D-net are read in one pass, folded into the base relation
/// (R := (R ∪ A) − D), mapped into view deltas, and applied with the
/// counting algorithm — then the query runs against the fresh copy.
///
/// Batching is the point: the Yao function is subadditive, so patching the
/// view once with u accumulated tuples touches no more pages than patching
/// it k/q separate times (§4's triangle-inequality argument).
///
/// Several views can share the one hypothetical relation (§4: "it may be
/// worthwhile to refresh all the views whenever it is necessary to read
/// the contents of the A and D sets ... since this would eliminate the need
/// to read the hypothetical database again"). The strategy is built with
/// one select-project or join view, member 0; AddView registers further
/// select-project views over the same updated relation. Every step walks
/// the members in registration order — each screens every update, and one
/// read of the AD file and one fold patch them all — so a one-member
/// strategy is the plain single-view engine.
///
/// Crash safety (AdFile::Options::enable_wal): refresh becomes a journaled
/// two-phase protocol — patch every member copy, then fold the base and
/// reset the AD file — with a durable marker after each phase. A crash at any
/// point rolls forward on Recover(). While an interrupted refresh is
/// outstanding, Query() degrades by phase (see RecoveryPhase) after a
/// bounded number of recovery attempts instead of failing, and
/// OnTransaction() insists on rolling forward first once the fold has
/// started (mixing new intents into a half-folded epoch is unsound).
class DeferredStrategy : public ViewStrategy {
 public:
  DeferredStrategy(SelectProjectDef def, hr::AdFile::Options ad_options,
                   storage::CostTracker* tracker);
  DeferredStrategy(JoinDef def, hr::AdFile::Options ad_options,
                   storage::CostTracker* tracker);

  /// Registers another view over the updated relation behind the same AD
  /// file, materializes it from the base, and returns its member index.
  /// InvalidArgument for a view over another relation; FailedPrecondition
  /// once differential work is pending.
  StatusOr<size_t> AddView(const SelectProjectDef& def);

  /// Builds every member's stored copy from the current base state (run
  /// pre-workload).
  Status InitializeFromBase();

  Status OnTransaction(const db::Transaction& txn) override;
  /// Reads member 0 (see QueryView).
  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override {
    return QueryView(0, lo, hi, visit);
  }
  /// Refreshes every member if work is pending (one fold), then reads
  /// member `index`. InvalidArgument for an unknown index.
  Status QueryView(size_t index, int64_t lo, int64_t hi,
                   const MaterializedView::CountedVisitor& visit);
  const char* name() const override { return "deferred"; }

  /// Applies all pending differential work to every member now. Normally
  /// driven by Query — exposed so callers can refresh during idle time (§4
  /// discusses asynchronous refresh as an optimization). In crash-safe mode
  /// this runs the journaled protocol and rolls forward any interrupted
  /// epoch first.
  Status Refresh() override;

  /// Crash recovery: rebuilds the AD file from its WAL, derives the
  /// interrupted refresh phase from the durable markers, and rolls the
  /// protocol forward to completion. Idempotent; FailedPrecondition when
  /// the WAL is disabled.
  Status Recover() override;

  /// The AD log is this strategy's commit log.
  Status SyncLog() override { return hr_.mutable_ad()->SyncLog(); }
  Status DiscardVolatileLog() override {
    return hr_.mutable_ad()->DiscardVolatileLog();
  }

  /// Base ∪ A − D through the hypothetical relation: committed transactions
  /// live in the differential until a fold.
  Status ScanVisibleBase(const db::Relation* base,
                         const db::Relation::TupleVisitor& visit)
      const override;

  MaterializedView* view(size_t index = 0) {
    return members_[index].view.get();
  }
  size_t view_count() const { return members_.size(); }
  hr::HypotheticalRelation* hypothetical() { return &hr_; }
  const hr::AdFile& ad() const { return hr_.ad(); }
  /// Refreshes that folded pending work (one per fold, whatever the member
  /// count).
  uint64_t refresh_count() const { return refresh_count_; }
  uint64_t pending_tuples() const { return hr_.ad().entry_count(); }

  /// True when the WAL-backed protocol is active.
  bool crash_safe() const { return hr_.ad().wal_enabled(); }
  RecoveryPhase phase() const { return phase_; }
  /// True when the copy cannot be served as-is (interrupted refresh or an
  /// AD file that must be rebuilt from its log).
  bool stale() const {
    return phase_ != RecoveryPhase::kNone || hr_.ad().needs_recovery();
  }
  uint64_t refresh_epoch() const { return epoch_; }
  uint64_t degraded_queries() const override { return degraded_queries_; }
  uint64_t recoveries() const override { return recoveries_; }

  /// Transaction ids issued so far (crash-safe mode); see ViewStrategy.
  uint64_t txn_seq() const override { return txn_seq_; }
  /// Highest transaction id known durably committed — advanced by an
  /// acknowledged commit or by Recover() reading the commit record from the
  /// log. Resolves ambiguous OnTransaction() failures: after a successful
  /// Recover(), the transaction committed iff its id is ≤ this water mark.
  uint64_t committed_txn_high_water() const override {
    return committed_txn_high_;
  }

 protected:
  /// Member 0's select-project definition; valid only for a strategy built
  /// from one (the hybrid's router costs and scans through it).
  const SelectProjectDef& sp_def() const {
    return std::get<SelectProjectDef>(members_.front().def);
  }
  storage::CostTracker* tracker() const { return tracker_; }

 private:
  /// Recovery attempts per Query()/OnTransaction() before degrading or
  /// rejecting — the "bounded retry" of the degradation contract. Each
  /// attempt re-drives the roll-forward, so transient injected faults are
  /// ridden out while a hard-down device fails fast.
  static constexpr int kMaxRecoveryAttempts = 3;

  /// One view behind the shared AD file.
  struct Member {
    TupleViewDef def;
    UpdateScreen screen;
    std::unique_ptr<MaterializedView> view;
  };

  /// A member's share of one refresh.
  struct ViewDelta {
    std::vector<db::Tuple> inserts;
    std::vector<db::Tuple> deletes;
  };

  DeferredStrategy(TupleViewDef def, hr::AdFile::Options ad_options,
                   storage::CostTracker* tracker);

  /// R (or R1 for a join): the relation every member reads and the AD file
  /// differentiates.
  db::Relation* updated_relation() const {
    return UpdatedRelation(members_.front().def);
  }

  /// Appends a member with an empty stored copy.
  void AddMember(TupleViewDef def);

  /// Empties every member's stored copy.
  Status ClearViews();

  /// Scan visitor inserting each visited tuple's image into every member's
  /// copy; the first failure lands in *inner and stops the scan.
  db::Relation::TupleVisitor ViewsInserter(Status* inner);

  /// Maps folded A/D nets into one member's view deltas.
  Status MapNets(const TupleViewDef& def, const std::vector<db::Tuple>& a_net,
                 const std::vector<db::Tuple>& d_net, ViewDelta* delta);

  /// Non-journaled single-shot refresh (WAL disabled): the original
  /// fold-then-patch path.
  Status RefreshUnsafe();

  /// Journaled protocol from a clean state: computes deltas, then
  /// patch-view / fold / reset with markers and crash points.
  Status RefreshSafe();

  /// Rolls the protocol forward from phase_. Assumes the AD file is
  /// trustworthy (recovered or never damaged).
  Status RollForward();

  /// kNeedViewRebuild roll-forward: re-begins the epoch, rebuilds every
  /// member copy from the hypothetical relation, then folds.
  Status RebuildViewAndFold();

  /// kNeedFold roll-forward: idempotent base fold of the current AD nets,
  /// fold-commit marker, then reset.
  Status FoldAndReset(const std::vector<db::Tuple>& a_net,
                      const std::vector<db::Tuple>& d_net, bool idempotent);

  /// kNeedReset roll-forward: AD reset (clears hash + Bloom, truncates the
  /// WAL) and epoch completion.
  Status FinishReset();

  /// Phase-appropriate degraded read of one member (see RecoveryPhase
  /// docs).
  Status DegradedQuery(const Member& member, int64_t lo, int64_t hi,
                       const MaterializedView::CountedVisitor& visit);

  /// Query modification over base ∪ AD: full HR scan, map through the
  /// member's definition, filter to the queried view-key range. Emits
  /// count-1 duplicates like the QM strategies.
  Status QueryViaModification(const Member& member, int64_t lo, int64_t hi,
                              const MaterializedView::CountedVisitor& visit);

  storage::CostTracker* tracker_;
  /// Constructed before any member, so the AD file's pages come first.
  hr::HypotheticalRelation hr_;
  std::vector<Member> members_;  ///< registration order; never empty
  uint64_t refresh_count_ = 0;

  RecoveryPhase phase_ = RecoveryPhase::kNone;
  uint64_t epoch_ = 0;     ///< last refresh epoch begun
  uint64_t txn_seq_ = 0;   ///< commit-record ids (crash-safe mode)
  uint64_t committed_txn_high_ = 0;  ///< see committed_txn_high_water()
  uint64_t degraded_queries_ = 0;
  uint64_t recoveries_ = 0;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_DEFERRED_H_
