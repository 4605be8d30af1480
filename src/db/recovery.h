#ifndef VIEWMAT_DB_RECOVERY_H_
#define VIEWMAT_DB_RECOVERY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "db/relation.h"
#include "db/transaction.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/wal.h"

namespace viewmat::db {

/// What one Recover() pass did (observability and test assertions).
struct RecoverStats {
  size_t txns_replayed = 0;  ///< committed transactions redone
  size_t ops_replayed = 0;   ///< tuple writes actually re-applied
  size_t ops_skipped = 0;    ///< tuple writes already present (idempotence)
  bool torn_tail = false;    ///< log ended in a torn record
  uint64_t committed_high = 0;  ///< newest committed transaction id
};

/// ARIES-lite redo-only recovery over a unified write-ahead log.
///
/// Protocol (log-commit-then-apply): CommitAndApply first appends the
/// transaction's full net A/D set plus a commit record to the WAL and syncs
/// — only then does it touch base relation pages. Because no page is
/// written before its transaction is durably committed, base relations can
/// never hold uncommitted data, so recovery needs no undo: after any crash
/// the base state is "some committed prefix, plus a partially-applied
/// suffix of committed transactions", and idempotent in-order redo of every
/// committed transaction converges it to the full committed state.
///
/// Recovery is analysis + redo:
///  - analysis scans the log, grouping intent records under the commit
///    record that covers them (a commit adopts the `count` intents
///    immediately preceding it); intents never covered by a commit — the
///    torn tail of a crashed transaction — are discarded;
///  - redo replays each committed transaction in log order. Replay is
///    idempotent: a delete whose tuple is already gone is skipped, an
///    insert whose exact tuple is already present is skipped. Transient
///    duplicates from partially-applied update chains are tolerated (the
///    clustered B+-tree supports duplicate keys) and consumed by the
///    remaining redo.
///
/// Checkpointing flushes all dirty pages, then atomically truncates the
/// log down to a single checkpoint record carrying the committed high-water
/// mark (WriteAheadLog::TruncateWithRecord — the old log survives any
/// failure before the head write lands).
///
/// The manager also arms the buffer pool's WAL rule: it attaches its log to
/// the pool and stamps pages dirtied during apply/redo with the governing
/// commit record's LSN, so a page image can never reach the device ahead of
/// the log records that justify it.
class RecoveryManager {
 public:
  /// Record types in the unified transaction log. The session records are
  /// owned by the net layer's exactly-once protocol (see
  /// net::SessionServer): recovery's analysis/redo skips them as opaque —
  /// they ride in this log only so a commit's durability covers the stamp
  /// that precedes it (prefix durability) and so checkpoint truncation
  /// cannot separate the dedup table from the commit history it summarizes.
  enum RecordType : uint8_t {
    kTxnInsert = 1,  ///< [u32 rel_idx][serialized tuple]
    kTxnDelete = 2,  ///< [u32 rel_idx][serialized tuple]
    kTxnCommit = 3,  ///< [u64 txn_id][u64 count of preceding intents]
    kCheckpoint = 4,  ///< [u64 committed high-water mark]
    kSessionStamp = 5,  ///< net-layer: pre-commit (session, seq, txn) stamp
    kSessionTable = 6,  ///< net-layer: dedup-table snapshot at a checkpoint
    kSessionAbort = 7,  ///< net-layer: txn id durably drawn but never
                        ///< committed — stamps naming it are dead forever
  };

  struct Options {
    /// Checkpoint automatically after every N successful commits (0 = only
    /// on explicit Checkpoint() calls).
    size_t checkpoint_every = 0;
    /// Shared LSN space (e.g. with an AD file's log); the manager's WAL
    /// owns a private allocator when null.
    storage::LsnAllocator* lsn_allocator = nullptr;
    /// Sync the WAL inside every CommitAndApply (the classical one-sync-per-
    /// commit protocol). When false the commit record is only buffered and
    /// the caller owns durability: it must call SyncWal() at group-commit
    /// batch boundaries, and until then the commit may be lost by a crash
    /// (Recover() will simply not see it — the log-commit-then-apply
    /// invariant still holds provided volatile page state is discarded, see
    /// BufferPool::DiscardAll).
    bool sync_on_commit = true;
  };

  /// Builds the unified WAL on `pool`'s disk and attaches it to the pool for
  /// WAL-rule enforcement.
  RecoveryManager(storage::BufferPool* pool, Options options);
  explicit RecoveryManager(storage::BufferPool* pool)
      : RecoveryManager(pool, Options()) {}

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Registers a base relation for logging and redo. Registration order
  /// defines the relation index stored in log records, so it must be
  /// deterministic across restarts (same relations, same order).
  /// Returns the relation's index.
  uint32_t Register(Relation* rel);

  /// Atomically commits and applies `txn`: logs its full net A/D set and a
  /// commit record, syncs the log, then applies the changes to the base
  /// relations. On success `out_txn_id` (if non-null) receives the
  /// transaction's id and the transaction is durable — a later crash plus
  /// Recover() always re-establishes it. On a log-sync failure nothing was
  /// applied; whether the commit became durable anyway is resolved by
  /// Recover() (committed_high >= the id reported through `out_txn_id`,
  /// which is filled even on failure). On an apply failure the commit IS
  /// durable and needs_recovery() turns true; Recover() completes it.
  Status CommitAndApply(const Transaction& txn, uint64_t* out_txn_id = nullptr);

  /// Analysis + redo, as described above. Safe to call any time (a no-op
  /// pass on a clean log) and idempotent: Recover() twice ≡ once.
  Status Recover(RecoverStats* stats = nullptr);

  /// Forces every buffered log record to the device. The group-commit batch
  /// boundary when Options::sync_on_commit is false; a cheap no-op sync
  /// otherwise.
  Status SyncWal() { return wal_.Sync(); }

  /// Kills volatile log state after a simulated crash+restart of the
  /// device (see WriteAheadLog::DiscardVolatile). Must run before the
  /// first post-crash SyncWal(), or the stale staged tail would become
  /// durable and resurrect transactions the crash lost.
  Status DiscardVolatileWal() { return wal_.DiscardVolatile(); }

  /// One opaque extra record a caller can ride on a checkpoint (see the
  /// Checkpoint overload below). `type` should be one of the session
  /// record types — recovery itself never interprets the payload.
  struct ExtraRecord {
    uint8_t type = 0;
    std::vector<uint8_t> payload;
  };

  /// Flushes all dirty pages, then truncates the log to one checkpoint
  /// record. After a checkpoint, recovery starts from the checkpoint's
  /// committed high-water mark.
  Status Checkpoint();

  /// Checkpoint with extra opaque records planted in the same atomic
  /// head-page write as the checkpoint record (the net layer's dedup-table
  /// snapshot rides here): either the checkpoint and every extra survive
  /// together, or the old log stays intact. Extras appear after the
  /// checkpoint record in scan order.
  Status Checkpoint(const std::vector<ExtraRecord>& extras);

  /// True after a failed apply: base relations may hold a partially-applied
  /// committed transaction until Recover() runs.
  bool needs_recovery() const { return needs_recovery_; }

  /// Newest transaction id known committed (durable). Monotonic; survives
  /// checkpoints via the checkpoint record and an in-memory floor.
  uint64_t last_committed_txn() const { return last_committed_txn_; }

  /// Transaction ids issued so far. CommitAndApply draws an id before any
  /// logging, so an attempt whose outcome is ambiguous (sync error with a
  /// failed read-back probe) can be resolved after Recover(): it committed
  /// iff its id is <= last_committed_txn().
  uint64_t txn_seq() const { return txn_seq_; }

  /// Recover() passes completed (observability).
  uint64_t recoveries() const { return recoveries_; }
  /// Checkpoints taken (observability).
  uint64_t checkpoints() const { return checkpoints_; }

  /// Opts recovery/checkpoint work into a metrics registry (may be null to
  /// opt back out). Recover() bumps `recovery_runs_total`,
  /// `recovery_txns_replayed_total`, `recovery_ops_replayed_total`,
  /// `recovery_ops_skipped_total`, and `recovery_torn_tails_total`;
  /// Checkpoint() bumps `checkpoints_total` and observes the log size it
  /// retired (`checkpoint_log_records`) and its age in commits
  /// (`checkpoint_age_commits`). Both also record `recover.wal_analysis` /
  /// `recover.wal_redo` spans when the disk's CostTracker has a tracer.
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  storage::WriteAheadLog* wal() { return &wal_; }
  const storage::WriteAheadLog* wal() const { return &wal_; }

 private:
  /// One logged tuple write, decoded.
  struct RedoOp {
    bool is_insert = false;
    uint32_t rel_idx = 0;
    Tuple tuple;
  };

  Status AppendIntent(uint8_t type, uint32_t rel_idx, const Relation& rel,
                      const Tuple& t);
  /// Applies one decoded op idempotently.
  Status RedoOne(const RedoOp& op, RecoverStats* stats);

  storage::BufferPool* pool_;
  Options options_;
  storage::WriteAheadLog wal_;
  std::vector<Relation*> relations_;
  uint64_t txn_seq_ = 0;
  uint64_t last_committed_txn_ = 0;
  uint64_t commits_since_checkpoint_ = 0;
  bool needs_recovery_ = false;
  uint64_t recoveries_ = 0;
  uint64_t checkpoints_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace viewmat::db

#endif  // VIEWMAT_DB_RECOVERY_H_
