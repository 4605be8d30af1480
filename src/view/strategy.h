#ifndef VIEWMAT_VIEW_STRATEGY_H_
#define VIEWMAT_VIEW_STRATEGY_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "db/recovery.h"
#include "db/relation.h"
#include "db/transaction.h"
#include "view/materialized_view.h"

namespace viewmat::view {

/// A view materialization strategy for the paper's three models: the
/// engine observes every committed update transaction and answers view
/// queries. Models 1 and 2 answer with the view's tuples; an aggregate view
/// (Model 3, view/aggregate.h) answers with one (group, value) tuple per
/// group. Implementations differ in *when* work happens — query
/// modification and recompute do it all at query time, immediate at
/// transaction time, deferred just before the query — but must all return
/// the same answer for the same history (tested as the equivalence
/// property).
///
/// The engine owns applying the transaction to the base relations (directly
/// or through a hypothetical relation), so a workload is driven through
/// exactly one engine.
///
/// Durability contract. Every strategy commits through exactly one log, and
/// the hooks below let a harness drive any strategy through crashes
/// without knowing which:
///  - RM-committing strategies (query modification, immediate, snapshot,
///    recompute-on-change) write base changes through an attached
///    db::RecoveryManager (log-commit-then-apply). Recover, SyncLog,
///    DiscardVolatileLog, txn_seq, committed_txn_high_water, and recoveries
///    default to that manager; Refresh defaults to a no-op,
///    degraded_queries to 0, and ScanVisibleBase to the base itself.
///    Immediate, snapshot, and recompute-on-change extend Recover() with
///    their own repair rule, and snapshot maps Refresh() to RefreshNow().
///  - Journaled strategies (deferred, and hybrid, which is deferred plus a
///    query router) commit through their AD file's log and run the
///    two-phase refresh protocol. DeferredStrategy overrides every hook
///    with its AD-log version; the hybrid inherits them unchanged.
/// With no manager attached (the simulator's engines) the manager-backed
/// defaults return FailedPrecondition or 0 and never touch the missing
/// manager.
class ViewStrategy {
 public:
  virtual ~ViewStrategy() = default;

  /// Applies one committed update transaction.
  virtual Status OnTransaction(const db::Transaction& txn) = 0;

  /// Queries the view for values whose view key lies in [lo, hi]; the
  /// visitor receives each distinct value with its multiplicity. A visited
  /// value is valid only during its visit (answers are decoded into one
  /// reused tuple): copy it to keep it.
  virtual Status Query(int64_t lo, int64_t hi,
                       const MaterializedView::CountedVisitor& visit) = 0;

  virtual const char* name() const = 0;

  /// Commit transactions through the recovery manager (atomic base writes).
  /// The manager must have the view's base relations registered. Journaled
  /// strategies commit through their own log and never consult it.
  void AttachRecovery(db::RecoveryManager* rm) { recovery_ = rm; }

  /// Crash recovery: brings the committed history back from the log and
  /// repairs whatever materialized state the strategy keeps. Idempotent.
  /// Default: the recovery manager's redo (the whole job for query
  /// modification, which keeps no state of its own).
  virtual Status Recover() {
    if (recovery_ == nullptr) return NoRecoveryManager();
    return recovery_->Recover();
  }

  /// Brings the materialized state up to date with every committed
  /// transaction now. Default: nothing to do (no copy, or one that is
  /// always current or recomputed by the next query).
  virtual Status Refresh() { return Status::OK(); }

  /// Forces the log this strategy commits through to the device (the
  /// group-commit batch boundary). Default: the recovery manager's WAL.
  virtual Status SyncLog() {
    if (recovery_ == nullptr) return NoRecoveryManager();
    return recovery_->SyncWal();
  }

  /// Drops the log's unsynced tail after a simulated crash, so a later sync
  /// cannot resurrect transactions the crash lost. Default: the recovery
  /// manager's WAL.
  virtual Status DiscardVolatileLog() {
    if (recovery_ == nullptr) return NoRecoveryManager();
    return recovery_->DiscardVolatileWal();
  }

  /// Transaction ids issued so far. An OnTransaction() error with txn_seq()
  /// unchanged means the transaction was rejected before its commit record
  /// could possibly land.
  virtual uint64_t txn_seq() const {
    return recovery_ != nullptr ? recovery_->txn_seq() : 0;
  }

  /// Highest transaction id known durably committed. After a successful
  /// Recover(), an ambiguous OnTransaction() failure committed iff its id
  /// is <= this mark.
  virtual uint64_t committed_txn_high_water() const {
    return recovery_ != nullptr ? recovery_->last_committed_txn() : 0;
  }

  virtual uint64_t recoveries() const {
    return recovery_ != nullptr ? recovery_->recoveries() : 0;
  }

  /// Queries answered by a degraded read path instead of the fresh copy.
  virtual uint64_t degraded_queries() const { return 0; }

  /// Visits the base-relation contents a reader is entitled to see, given
  /// the strategy's updated relation `base`. Default: `base` itself.
  /// Journaled strategies keep committed transactions in the differential
  /// until a fold and visit base ∪ A − D instead.
  virtual Status ScanVisibleBase(const db::Relation* base,
                                 const db::Relation::TupleVisitor& visit)
      const {
    return base->Scan(visit);
  }

 protected:
  /// Commits `txn` to the base relations: through the recovery manager when
  /// one is attached, otherwise by applying it directly.
  Status CommitToBase(const db::Transaction& txn) {
    return recovery_ != nullptr ? recovery_->CommitAndApply(txn)
                                : txn.ApplyToBase();
  }

  db::RecoveryManager* recovery_ = nullptr;

 private:
  Status NoRecoveryManager() const {
    return Status::FailedPrecondition(
        std::string("no recovery manager attached to the ") + name() +
        " strategy");
  }
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_STRATEGY_H_
