#ifndef VIEWMAT_HR_AD_FILE_H_
#define VIEWMAT_HR_AD_FILE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "db/schema.h"
#include "db/tuple.h"
#include "storage/bloom_filter.h"
#include "storage/buffer_pool.h"
#include "storage/hash_index.h"
#include "storage/wal.h"

namespace viewmat::hr {

/// The combined differential file of §2.2.2: one clustered-hash file per
/// base relation holding both appended (role = A) and deleted (role = D)
/// tuples, distinguished by a role attribute. Keeping A and D together means
/// an update that leaves the key unchanged lands old and new versions on the
/// same page — the paper's 3-I/O update path instead of 5 with separate
/// files.
///
/// A Bloom filter over keys [Seve76, Bloo70] screens reads: a negative
/// answer proves the key has no AD entries, avoiding the probe I/O.
///
/// Net semantics are maintained eagerly: recording the deletion of a tuple
/// that has an identical role-A entry removes that entry (and vice versa),
/// so at refresh time the file's A entries are exactly A-net and its D
/// entries exactly D-net, with A ∩ D = ∅ as the differential update
/// algorithm requires.
///
/// Durability: with Options::enable_wal the file keeps a write-ahead log (a
/// storage::WriteAheadLog charged to Component::kAdLog). Every mutation
/// stages an intent record before touching the hash file; a transaction's
/// intents take effect at its commit record, and CommitTxn's one sync makes
/// them durable together — the same commit rule as db::RecoveryManager.
/// Recover() rebuilds the hash file and the Bloom filter from the log
/// alone, discarding uncommitted tails, so an intent applied to the hash
/// file before its commit is durable is safe — the crash-safety foundation
/// the deferred strategy's atomic refresh builds on.
class AdFile {
 public:
  enum class Role : uint8_t { kDeleted = 0, kAppended = 1 };

  /// WAL record types (the u8 type byte of AD-log records).
  enum class WalRecord : uint8_t {
    kIntentInsert = 1,  ///< payload: serialized tuple
    kIntentDelete = 2,  ///< payload: serialized tuple
    kTxnCommit = 3,     ///< payload: u64 transaction id + u64 intent count
    kRefreshBegin = 4,  ///< payload: u64 refresh epoch
    kViewPatched = 5,   ///< payload: u64 refresh epoch
    kFoldCommit = 6,    ///< payload: u64 refresh epoch
  };

  struct Options {
    /// Hash buckets for the AD file (it is small; a handful of pages).
    uint32_t hash_buckets = 8;
    /// Bloom filter sizing.
    size_t expected_keys = 256;
    double bloom_fp_rate = 0.01;
    /// Keep a write-ahead log and support Recover(). Off by default so the
    /// paper-reproduction cost measurements are unchanged; the crash-safe
    /// deferred strategy turns it on.
    bool enable_wal = false;
    /// When set, the AD log draws its LSNs from this shared allocator so
    /// its records join the unified LSN space of the system's redo WAL
    /// (storage/wal.h). Null keeps a private sequence.
    storage::LsnAllocator* lsn_allocator = nullptr;
    /// Sync the AD log inside every CommitTxn, as
    /// db::RecoveryManager::Options::sync_on_commit does for the redo WAL.
    /// When false the commit record is only staged and the caller owns
    /// durability: it must call SyncLog() at group-commit batch boundaries.
    /// Refresh-protocol markers sync either way, because the fold
    /// protocol's crash analysis depends on their durability ordering
    /// relative to the view patches around them.
    bool sync_on_commit = true;
  };

  /// What Recover() learned from the log. Epochs are 0 when the marker is
  /// absent; markers only survive until the epoch's final Reset truncates
  /// the log, so any marker present denotes an unfinished refresh.
  struct RecoveryInfo {
    uint64_t last_epoch_begun = 0;     ///< newest kRefreshBegin
    uint64_t view_patched_epoch = 0;   ///< newest kViewPatched
    uint64_t fold_committed_epoch = 0; ///< newest kFoldCommit
    uint64_t last_committed_txn = 0;
    size_t replayed_intents = 0;       ///< committed intents re-applied
    size_t discarded_intents = 0;      ///< uncommitted tail thrown away
    bool torn_tail = false;            ///< log ended in a torn record
  };

  AdFile(storage::BufferPool* pool, db::Schema schema, size_t key_field,
         Options options);

  AdFile(const AdFile&) = delete;
  AdFile& operator=(const AdFile&) = delete;

  /// Records that `t` was appended to the hypothetical relation. Cancels an
  /// identical pending deletion if present. With the WAL enabled the intent
  /// is staged in the log first; the change commits at the next CommitTxn.
  Status RecordInsert(const db::Tuple& t);

  /// Records that `t` was deleted. Cancels an identical pending append if
  /// present.
  Status RecordDelete(const db::Tuple& t);

  /// Commits this transaction's `intent_count` intents under `txn_id` (WAL
  /// mode; a no-op otherwise): appends the commit record and, with
  /// Options::sync_on_commit, syncs the log once, so an OK return means the
  /// transaction is durable. Until then the recorded intents are an
  /// uncommitted tail that Recover() discards. The count travels in the
  /// commit record so replay adopts exactly the committing transaction's
  /// trailing intents — never stray records an earlier failed transaction
  /// left staged, which a later sync carries to the device.
  Status CommitTxn(uint64_t txn_id, uint64_t intent_count);

  /// Refresh-protocol markers (WAL mode). See DeferredStrategy::Refresh for
  /// the protocol; AdFile only journals them.
  Status LogRefreshBegin(uint64_t epoch);
  Status LogViewPatched(uint64_t epoch);
  Status LogFoldCommit(uint64_t epoch);

  /// Forces staged log records to the device — the group-commit batch
  /// boundary when Options::sync_on_commit is false. No-op without a WAL.
  Status SyncLog();

  /// Kills volatile log state after a simulated crash+restart of the
  /// device (WriteAheadLog::DiscardVolatile): the staged-but-unsynced
  /// tail is dropped and the in-memory log image re-read from durable
  /// bytes, so a later SyncLog() cannot resurrect lost transactions.
  /// No-op without a WAL.
  Status DiscardVolatileLog() {
    return log_ != nullptr ? log_->DiscardVolatile() : Status::OK();
  }

  /// Rebuilds the hash file and Bloom filter from the log: replays every
  /// committed intent after the newest kFoldCommit, in order, with the same
  /// netting semantics as the original calls; discards uncommitted tails.
  /// Clears needs_recovery(). FailedPrecondition when the WAL is disabled.
  Status Recover(RecoveryInfo* info);

  /// True when the hash file may disagree with the committed log (a
  /// mutation failed partway) and Recover() must run before the contents
  /// are trusted.
  bool needs_recovery() const { return needs_recovery_; }

  /// Marks the file untrusted (WAL mode; no-op otherwise). Callers use this
  /// when a multi-record transaction failed partway: the already-applied
  /// intents are uncommitted and must be rolled back by Recover() before
  /// the hash file is read again.
  void MarkNeedsRecovery() {
    if (log_ != nullptr) needs_recovery_ = true;
  }

  bool wal_enabled() const { return log_ != nullptr; }
  uint64_t last_committed_txn() const { return last_committed_txn_; }
  /// Newest transaction id whose commit record is known durable — advanced
  /// at every sync point (each commit with sync_on_commit; SyncLog and the
  /// marker syncs otherwise). After a crash this floor, not
  /// last_committed_txn(), bounds what provably survived: commits folded
  /// into the base had durable records when the refresh-begin marker
  /// synced, so the floor also covers transactions whose records a
  /// fold-final Reset later truncated away.
  uint64_t durable_txn_floor() const { return durable_txn_floor_; }

  /// True if the Bloom filter admits the key might have AD entries. Free of
  /// I/O; false positives possible, false negatives impossible.
  bool MightContainKey(int64_t key) const {
    return bloom_.MayContain(static_cast<uint64_t>(key));
  }

  /// Visits all entries for `key` (probes the hash file: I/O charged).
  Status VisitKey(int64_t key,
                  const std::function<bool(Role, const db::Tuple&)>& visit) const;

  /// Reads the whole file (the C_ADread full scan before a refresh) and
  /// returns the net insert/delete sets.
  Status ScanNet(std::vector<db::Tuple>* a_net,
                 std::vector<db::Tuple>* d_net) const;

  /// Empties the file and the Bloom filter (after R := (R ∪ A) − D), and
  /// truncates the WAL.
  Status Reset();

  size_t entry_count() const { return hash_->entry_count(); }
  size_t page_count() const { return hash_->page_count(); }
  const storage::BloomFilter& bloom() const { return bloom_; }

  /// Test hook: forgets the in-memory hash file and Bloom filter (as a
  /// crash would), so a subsequent Recover() provably rebuilds them from
  /// the log rather than from surviving state.
  void ScrambleForTest();

 private:
  /// Payload layout: [u8 role][serialized tuple].
  std::vector<uint8_t> EncodeEntry(Role role, const db::Tuple& t) const;

  /// Removes one entry equal to (role, t); NotFound if absent.
  Status RemoveEntry(Role role, const db::Tuple& t);

  /// The netting mutation without WAL involvement (used by the public
  /// Record* paths after logging, and by replay).
  Status ApplyInsert(const db::Tuple& t);
  Status ApplyDelete(const db::Tuple& t);

  Status LogIntent(WalRecord type, const db::Tuple& t);
  Status LogMarker(WalRecord type, uint64_t value);

  storage::BufferPool* pool_;
  db::Schema schema_;
  size_t key_field_;
  Options options_;
  std::unique_ptr<storage::HashIndex> hash_;
  storage::BloomFilter bloom_;
  std::unique_ptr<storage::WriteAheadLog> log_;
  bool needs_recovery_ = false;
  uint64_t last_committed_txn_ = 0;
  uint64_t durable_txn_floor_ = 0;
};

}  // namespace viewmat::hr

#endif  // VIEWMAT_HR_AD_FILE_H_
