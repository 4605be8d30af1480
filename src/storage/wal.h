#ifndef VIEWMAT_STORAGE_WAL_H_
#define VIEWMAT_STORAGE_WAL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/cost_tracker.h"
#include "storage/disk.h"

namespace viewmat::storage {

/// Hands out log sequence numbers. One allocator can be shared by several
/// logs (the unified redo WAL and each AD file's log), putting every record
/// in the system into a single total order — the "unified LSN space" the
/// recovery protocol keys page stamps against. LSNs start at 1; 0 means
/// "never logged". Gaps are fine (an LSN burned on a failed append is never
/// reused), only monotonicity matters.
class LsnAllocator {
 public:
  Lsn Next() { return next_++; }

  /// Raises the counter so the next LSN is strictly greater than `lsn`.
  /// Called when a log resynchronizes from the device and discovers durable
  /// records this allocator instance has not seen.
  void EnsureAtLeast(Lsn lsn) { next_ = std::max(next_, lsn + 1); }

  /// Largest LSN handed out so far (0 if none).
  Lsn last() const { return next_ - 1; }

 private:
  Lsn next_ = 1;
};

/// An LSN-stamped, checksummed redo log: the one log service behind the
/// system's redo WAL (db::RecoveryManager) and every AD file's log
/// (hr::AdFile). An append-only chain of pages written straight to the disk
/// (no buffer pool — a record must be durable when Sync() returns).
///
/// Append stages records in the in-memory tail page; Sync() makes
/// everything staged durable in one device write, so a caller pays one
/// write per commit (or per group-commit batch), not one per record.
/// Staging never spans pages: a record that does not fit first syncs the
/// pending tail, then rolls over durably.
///
/// Torn-write safety: each record carries a length, its LSN, and an FNV-1a
/// checksum. Records validate themselves — the scanner never trusts the
/// page's `used` header, which travels in the same (tearable) block write
/// as the record bytes. A write torn anywhere leaves every
/// previously-acknowledged record intact (their bytes are rewritten
/// identically) and makes the torn tail record fail its checksum.
///
/// Acknowledgment is truthful both ways: when a sync reports failure, the
/// tail is read back to learn what the device durably holds. Records that
/// landed in full despite the error are adopted (a fully-landed batch is
/// acknowledged OK); a durable prefix of the batch is adopted into the
/// in-memory image but still reported as an error — the suffix is scrubbed
/// so it can never retroactively become durable. Only when the read-back
/// itself fails is the outcome unknown; the log then resynchronizes from
/// the device before the next operation, so the durable history stays
/// append-only either way.
///
/// Page layout:   [u32 used][PageId next][records...]
/// Record layout: [u8 type][u16 len][u64 lsn][u32 checksum][payload]
class WriteAheadLog {
 public:
  /// type, payload, payload length; return false to stop the scan.
  using Visitor = std::function<bool(uint8_t, const uint8_t*, uint16_t)>;
  /// Same, with the record's LSN first.
  using LsnVisitor =
      std::function<bool(Lsn, uint8_t, const uint8_t*, uint16_t)>;

  struct Options {
    /// Shared LSN space; the log owns a private allocator when null.
    LsnAllocator* lsn_allocator = nullptr;
    /// Cost attribution for this log's I/O.
    Component component = Component::kWal;
  };

  explicit WriteAheadLog(DiskInterface* disk)
      : WriteAheadLog(disk, Options()) {}
  WriteAheadLog(DiskInterface* disk, Options options);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Stages one record, stamping it with the next LSN (reported through
  /// `out_lsn` when non-null). The record is durable after the next OK
  /// Sync() — or at once when it rolls the tail over to a fresh page, since
  /// a rollover is always written through.
  Status Append(uint8_t type, const uint8_t* payload, uint16_t len,
                Lsn* out_lsn = nullptr);

  /// Makes every staged record durable. OK means the whole staged batch is
  /// on the device. An error means the tail of the batch is not durable
  /// (any durable prefix was adopted; the rest was scrubbed) — except when
  /// the device also refused the read-back probe, in which case the batch's
  /// fate is unknown until the next successful Scan; callers treat such a
  /// transaction as unresolved and consult the recovered log.
  Status Sync();

  /// Drops every staged-but-unsynced record and re-reads the durable tail
  /// from the device — the log-side analogue of BufferPool::DiscardAll.
  /// A process restart loses volatile log state for free; a simulated
  /// crash keeps this object alive, so the harness must kill that state
  /// explicitly before reusing the log. Without it a later Sync() would
  /// write the stale staged tail back to the restarted device and
  /// resurrect transactions the crash already lost.
  Status DiscardVolatile();

  /// Replays every durable record in append order. Stops early (OK) at a
  /// torn tail, reporting it through `torn_tail` when non-null.
  Status Scan(const Visitor& visit, bool* torn_tail = nullptr) const;
  Status ScanWithLsn(const LsnVisitor& visit, bool* torn_tail = nullptr) const;

  /// Logically empties the log: writes a fresh empty head page first, then
  /// frees the remainder of the old chain. A crash in between leaves an
  /// empty log plus leaked pages — never a partially-truncated history.
  Status Truncate();

  /// Truncates and plants `(type, payload)` as the sole surviving record in
  /// the same single head-page write — the checkpoint primitive. The write
  /// either lands (empty log + record) or it does not (old log intact); a
  /// torn head leaves an empty log, which is safe because callers flush all
  /// dirty pages before checkpointing.
  Status TruncateWithRecord(uint8_t type, const uint8_t* payload, uint16_t len,
                            Lsn* out_lsn = nullptr);

  /// One record surviving a truncate; see TruncateWithRecords.
  struct TruncateRecord {
    uint8_t type = 0;
    const uint8_t* payload = nullptr;
    uint16_t len = 0;
  };

  /// TruncateWithRecord generalized to several records planted in the same
  /// single head-page write, in order. All-or-nothing exactly like the
  /// one-record form: either the whole record set survives the truncate or
  /// the old log stays intact (a torn head degrades to an empty log). The
  /// records must fit one page together; callers checkpointing composite
  /// state (e.g. a recovery checkpoint plus a session dedup-table snapshot)
  /// use this so the pieces can never be separated by a crash.
  Status TruncateWithRecords(const TruncateRecord* records, size_t count);

  /// Records acknowledged durable since construction or the last Truncate.
  /// In-memory bookkeeping (informational; Scan is the durable source of
  /// truth).
  size_t record_count() const { return record_count_; }
  size_t page_count() const { return chain_.size(); }
  /// Records staged in the tail but not yet synced.
  size_t pending_records() const { return pending_.size(); }

  /// Newest LSN known durable on the device. The buffer pool's WAL rule
  /// compares page stamps against this before write-back.
  Lsn durable_lsn() const { return durable_lsn_; }
  /// Newest LSN this log has assigned (staged or durable).
  Lsn last_lsn() const { return last_lsn_; }

  LsnAllocator* lsn_allocator() { return lsns_; }

  /// Largest payload a record can carry on this disk's page size.
  uint16_t max_payload() const;

 private:
  static constexpr uint32_t kUsedOff = 0;
  static constexpr uint32_t kNextOff = 4;
  static constexpr uint32_t kHeaderSize = 8;
  /// u8 type + u16 len + u64 lsn + u32 checksum.
  static constexpr uint32_t kRecordHeader = 15;

  struct Pending {
    uint32_t off = 0;   ///< record start within the tail page
    uint32_t size = 0;  ///< header + payload bytes
    Lsn lsn = 0;
  };

  static uint32_t Checksum(uint8_t type, uint16_t len, Lsn lsn,
                           const uint8_t* payload);

  /// Writes an empty page header into `page`.
  void InitHeader(Page* page) const;

  /// Serializes one record into `page` at `off`.
  void PutRecord(Page* page, uint32_t off, uint8_t type,
                 const uint8_t* payload, uint16_t len, Lsn lsn) const;

  /// Walks `page`'s records by checksum, returning the offset one past the
  /// last valid record, how many were valid, and the last valid LSN.
  void DurableEnd(const Page& page, uint32_t* end, size_t* count,
                  Lsn* last) const;

  /// Re-reads the durable tail (following any link an ambiguous failure may
  /// have landed) and adopts it as the in-memory tail image.
  Status ResyncTail();

  /// Shared body of Truncate/TruncateWithRecord(s).
  Status TruncateInternal(const TruncateRecord* records, size_t count,
                          Lsn* out_lsn);

  Status SyncInternal();

  DiskInterface* disk_;
  Component component_;
  LsnAllocator owned_lsns_;
  LsnAllocator* lsns_;

  std::vector<PageId> chain_;  ///< head first; tail is open
  Page tail_;                  ///< in-memory copy of the tail page
  uint32_t tail_used_ = kHeaderSize;    ///< end of staged records
  uint32_t tail_synced_ = kHeaderSize;  ///< end of durable records
  std::vector<Pending> pending_;        ///< staged, not yet durable
  size_t record_count_ = 0;
  Lsn durable_lsn_ = 0;
  Lsn last_lsn_ = 0;
  /// True when a failed write could not be read back: the in-memory tail
  /// may disagree with the device and must resync before the next append.
  bool tail_dirty_ = false;
};

}  // namespace viewmat::storage

#endif  // VIEWMAT_STORAGE_WAL_H_
