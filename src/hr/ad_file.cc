#include "hr/ad_file.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::hr {

namespace {

void EncodeU64(uint64_t v, uint8_t out[8]) {
  std::memcpy(out, &v, sizeof(v));
}

uint64_t DecodeU64(const uint8_t* in) {
  uint64_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

/// The payload size a well-formed AD-log record of `type` carries, or 0 for
/// a type the AD log never writes.
size_t PayloadSize(AdFile::WalRecord type, size_t tuple_size) {
  switch (type) {
    case AdFile::WalRecord::kIntentInsert:
    case AdFile::WalRecord::kIntentDelete:
      return tuple_size;
    case AdFile::WalRecord::kTxnCommit:
      return 16;
    case AdFile::WalRecord::kRefreshBegin:
    case AdFile::WalRecord::kViewPatched:
    case AdFile::WalRecord::kFoldCommit:
      return 8;
  }
  return 0;
}

}  // namespace

AdFile::AdFile(storage::BufferPool* pool, db::Schema schema, size_t key_field,
               Options options)
    : pool_(pool),
      schema_(std::move(schema)),
      key_field_(key_field),
      options_(options),
      bloom_(storage::BloomFilter::ForExpectedKeys(options.expected_keys,
                                                   options.bloom_fp_rate)) {
  VIEWMAT_CHECK(key_field_ < schema_.field_count());
  hash_ = std::make_unique<storage::HashIndex>(
      pool_, 1 + schema_.record_size(), options.hash_buckets);
  if (options_.enable_wal) {
    log_ = std::make_unique<storage::WriteAheadLog>(
        pool_->disk(),
        storage::WriteAheadLog::Options{
            .lsn_allocator = options_.lsn_allocator,
            .component = storage::Component::kAdLog});
    VIEWMAT_CHECK_MSG(schema_.record_size() <= log_->max_payload(),
                      "AD tuple too large for one WAL record");
  }
}

std::vector<uint8_t> AdFile::EncodeEntry(Role role,
                                         const db::Tuple& t) const {
  std::vector<uint8_t> buf(1 + schema_.record_size());
  buf[0] = static_cast<uint8_t>(role);
  t.Serialize(schema_, buf.data() + 1);
  return buf;
}

Status AdFile::RemoveEntry(Role role, const db::Tuple& t) {
  const std::vector<uint8_t> want = EncodeEntry(role, t);
  const int64_t key = t.at(key_field_).AsInt64();
  return hash_->Delete(key, [&](const uint8_t* payload) {
    return std::memcmp(payload, want.data(), want.size()) == 0;
  });
}

Status AdFile::ApplyInsert(const db::Tuple& t) {
  // A pending deletion of the identical tuple nets to nothing.
  if (RemoveEntry(Role::kDeleted, t).ok()) return Status::OK();
  const std::vector<uint8_t> entry = EncodeEntry(Role::kAppended, t);
  const int64_t key = t.at(key_field_).AsInt64();
  VIEWMAT_RETURN_IF_ERROR(hash_->Insert(key, entry.data()));
  bloom_.Add(static_cast<uint64_t>(key));
  return Status::OK();
}

Status AdFile::ApplyDelete(const db::Tuple& t) {
  if (RemoveEntry(Role::kAppended, t).ok()) return Status::OK();
  const std::vector<uint8_t> entry = EncodeEntry(Role::kDeleted, t);
  const int64_t key = t.at(key_field_).AsInt64();
  VIEWMAT_RETURN_IF_ERROR(hash_->Insert(key, entry.data()));
  bloom_.Add(static_cast<uint64_t>(key));
  return Status::OK();
}

Status AdFile::LogIntent(WalRecord type, const db::Tuple& t) {
  if (log_ == nullptr) return Status::OK();
  storage::DiskInterface* disk = pool_->disk();
  VIEWMAT_RETURN_IF_ERROR(
      disk->AtCrashPoint(storage::CrashPoint::kBeforeWalAppend));
  std::vector<uint8_t> buf(schema_.record_size());
  t.Serialize(schema_, buf.data());
  VIEWMAT_RETURN_IF_ERROR(log_->Append(static_cast<uint8_t>(type), buf.data(),
                                       static_cast<uint16_t>(buf.size())));
  return disk->AtCrashPoint(storage::CrashPoint::kAfterWalAppend);
}

Status AdFile::LogMarker(WalRecord type, uint64_t value) {
  if (log_ == nullptr) return Status::OK();
  uint8_t buf[8];
  EncodeU64(value, buf);
  VIEWMAT_RETURN_IF_ERROR(
      log_->Append(static_cast<uint8_t>(type), buf, sizeof(buf)));
  // Epoch markers order the fold protocol's crash analysis (begin <
  // view-patched < fold-commit relative to the page writes between them),
  // so each one is durable before the protocol moves on. The sync drags
  // any staged per-transaction records to the device with it, so every
  // commit issued so far just became durable.
  VIEWMAT_RETURN_IF_ERROR(log_->Sync());
  durable_txn_floor_ = last_committed_txn_;
  return Status::OK();
}

Status AdFile::SyncLog() {
  if (log_ == nullptr) return Status::OK();
  VIEWMAT_RETURN_IF_ERROR(log_->Sync());
  durable_txn_floor_ = last_committed_txn_;
  return Status::OK();
}

Status AdFile::RecordInsert(const db::Tuple& t) {
  VIEWMAT_RETURN_IF_ERROR(LogIntent(WalRecord::kIntentInsert, t));
  const Status st = ApplyInsert(t);
  // The intent is logged but the hash file missed it: the two now disagree
  // until Recover() replays the log.
  if (!st.ok() && log_ != nullptr) needs_recovery_ = true;
  return st;
}

Status AdFile::RecordDelete(const db::Tuple& t) {
  VIEWMAT_RETURN_IF_ERROR(LogIntent(WalRecord::kIntentDelete, t));
  const Status st = ApplyDelete(t);
  if (!st.ok() && log_ != nullptr) needs_recovery_ = true;
  return st;
}

Status AdFile::CommitTxn(uint64_t txn_id, uint64_t intent_count) {
  if (log_ == nullptr) {
    last_committed_txn_ = txn_id;
    durable_txn_floor_ = txn_id;
    return Status::OK();
  }
  // The count scopes the commit to this transaction's own intents: replay
  // must never adopt stray intents an earlier failed transaction left
  // durable in the log.
  uint8_t buf[16];
  EncodeU64(txn_id, buf);
  EncodeU64(intent_count, buf + 8);
  Status st = log_->Append(static_cast<uint8_t>(WalRecord::kTxnCommit), buf,
                           sizeof(buf));
  if (st.ok() && options_.sync_on_commit) st = log_->Sync();
  if (!st.ok()) {
    // Intents were applied eagerly but never (knowably) committed; the hash
    // file is ahead of the committed log until Recover() rolls the tail
    // back — or, when the read-back probe failed, adopts the commit.
    needs_recovery_ = true;
    return st;
  }
  last_committed_txn_ = txn_id;
  // Without sync_on_commit, durability waits for the next SyncLog or
  // marker sync.
  if (options_.sync_on_commit) durable_txn_floor_ = txn_id;
  return Status::OK();
}

Status AdFile::LogRefreshBegin(uint64_t epoch) {
  return LogMarker(WalRecord::kRefreshBegin, epoch);
}

Status AdFile::LogViewPatched(uint64_t epoch) {
  return LogMarker(WalRecord::kViewPatched, epoch);
}

Status AdFile::LogFoldCommit(uint64_t epoch) {
  return LogMarker(WalRecord::kFoldCommit, epoch);
}

void AdFile::ScrambleForTest() {
  hash_ = std::make_unique<storage::HashIndex>(
      pool_, 1 + schema_.record_size(), options_.hash_buckets);
  bloom_.Clear();
  needs_recovery_ = true;
}

Status AdFile::Recover(RecoveryInfo* info) {
  if (log_ == nullptr) {
    return Status::FailedPrecondition("AD file has no WAL to recover from");
  }
  RecoveryInfo local;
  RecoveryInfo* out = info != nullptr ? info : &local;
  *out = RecoveryInfo();
  storage::CostTracker* tracker = pool_->disk()->tracker();
  obs::ScopedSpan recover_span(storage::TracerOf(tracker), "recover.ad");

  // Pass 1: read the durable history. Intents buffer until their commit
  // record; a fold-commit marker means everything committed so far was
  // folded into the base relation and no longer belongs in the AD file.
  struct PendingIntent {
    WalRecord type;
    db::Tuple tuple;
  };
  std::vector<PendingIntent> committed;
  std::vector<PendingIntent> uncommitted;
  bool torn = false;
  Status decode = Status::OK();
  obs::ScopedSpan replay_span(storage::TracerOf(tracker),
                              "recover.log_replay");
  const Status scanned = log_->Scan(
      [&](uint8_t type, const uint8_t* payload, uint16_t len) {
        // A record that passed its checksum still comes from the device:
        // an unknown type or a payload that does not fit its type is
        // rejected, never parsed.
        const auto record = static_cast<WalRecord>(type);
        const size_t want = PayloadSize(record, schema_.record_size());
        if (want == 0 || len != want) {
          decode = Status::Internal(
              "AD log record of type " + std::to_string(type) + " carries " +
              std::to_string(len) + " payload bytes (expected " +
              std::to_string(want) + ")");
          return false;
        }
        switch (record) {
          case WalRecord::kIntentInsert:
          case WalRecord::kIntentDelete:
            uncommitted.push_back(
                {record, db::Tuple::Deserialize(schema_, payload)});
            break;
          case WalRecord::kTxnCommit: {
            out->last_committed_txn = DecodeU64(payload);
            const uint64_t count = DecodeU64(payload + 8);
            // Only the committing transaction's own intents — the trailing
            // `count` records — take effect. Anything buffered before them
            // was left behind by a transaction that failed before its
            // commit record: aborted, never to be replayed.
            const size_t keep = static_cast<size_t>(
                std::min<uint64_t>(count, uncommitted.size()));
            out->discarded_intents += uncommitted.size() - keep;
            for (size_t i = uncommitted.size() - keep; i < uncommitted.size();
                 ++i) {
              committed.push_back(std::move(uncommitted[i]));
            }
            uncommitted.clear();
            break;
          }
          case WalRecord::kRefreshBegin:
            out->last_epoch_begun = DecodeU64(payload);
            break;
          case WalRecord::kViewPatched:
            out->view_patched_epoch = DecodeU64(payload);
            break;
          case WalRecord::kFoldCommit:
            out->fold_committed_epoch = DecodeU64(payload);
            committed.clear();
            break;
        }
        return true;
      },
      &torn);
  VIEWMAT_RETURN_IF_ERROR(scanned);
  VIEWMAT_RETURN_IF_ERROR(decode);
  out->torn_tail = torn;
  out->discarded_intents += uncommitted.size();
  replay_span.End();

  // Pass 2: rebuild the hash file and Bloom filter from the committed
  // history, with the same netting semantics the original calls used. From
  // the first mutation until the replay completes, the in-memory structures
  // are not trustworthy — a failure partway must leave the flag set so no
  // reader serves the half-rebuilt state.
  needs_recovery_ = true;
  obs::ScopedSpan rebuild_span(storage::TracerOf(tracker),
                               "recover.bloom_rebuild");
  {
    // The hash replay below re-adds surviving keys; clearing both here
    // makes the rebuild a fresh start (Bloom upkeep is free of I/O, so the
    // kBloom component only ever shows cost if a future change adds some).
    const storage::ScopedComponent bloom_tag(tracker,
                                             storage::Component::kBloom);
    bloom_.Clear();
  }
  VIEWMAT_RETURN_IF_ERROR(hash_->Clear());
  for (const PendingIntent& p : committed) {
    if (p.type == WalRecord::kIntentInsert) {
      VIEWMAT_RETURN_IF_ERROR(ApplyInsert(p.tuple));
    } else {
      VIEWMAT_RETURN_IF_ERROR(ApplyDelete(p.tuple));
    }
    ++out->replayed_intents;
  }
  last_committed_txn_ = out->last_committed_txn;
  // Everything the scan saw is durable by definition, but the floor may
  // already exceed the scan when a fold's Reset truncated older commits'
  // records away — their effects live on in the folded base.
  durable_txn_floor_ = std::max(durable_txn_floor_, out->last_committed_txn);
  needs_recovery_ = false;
  return Status::OK();
}

Status AdFile::VisitKey(
    int64_t key,
    const std::function<bool(Role, const db::Tuple&)>& visit) const {
  return hash_->FindAll(key, [&](int64_t, const uint8_t* payload) {
    const Role role = static_cast<Role>(payload[0]);
    return visit(role, db::Tuple::Deserialize(schema_, payload + 1));
  });
}

Status AdFile::ScanNet(std::vector<db::Tuple>* a_net,
                       std::vector<db::Tuple>* d_net) const {
  return hash_->ScanAll([&](int64_t, const uint8_t* payload) {
    const Role role = static_cast<Role>(payload[0]);
    db::Tuple t = db::Tuple::Deserialize(schema_, payload + 1);
    if (role == Role::kAppended) {
      a_net->push_back(std::move(t));
    } else {
      d_net->push_back(std::move(t));
    }
    return true;
  });
}

Status AdFile::Reset() {
  VIEWMAT_RETURN_IF_ERROR(hash_->Clear());
  bloom_.Clear();
  if (log_ != nullptr) {
    VIEWMAT_RETURN_IF_ERROR(
        pool_->disk()->AtCrashPoint(storage::CrashPoint::kMidAdReset));
    VIEWMAT_RETURN_IF_ERROR(log_->Truncate());
  }
  return Status::OK();
}

}  // namespace viewmat::hr
