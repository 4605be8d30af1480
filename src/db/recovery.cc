#include "db/recovery.h"

#include <cstring>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"
#include "storage/cost_tracker.h"

namespace viewmat::db {

RecoveryManager::RecoveryManager(storage::BufferPool* pool, Options options)
    : pool_(pool),
      options_(options),
      wal_(pool->disk(), {.lsn_allocator = options.lsn_allocator,
                          .component = storage::Component::kWal}) {
  pool_->AttachWal(&wal_);
}

uint32_t RecoveryManager::Register(Relation* rel) {
  VIEWMAT_CHECK(rel != nullptr);
  relations_.push_back(rel);
  return static_cast<uint32_t>(relations_.size() - 1);
}

Status RecoveryManager::AppendIntent(uint8_t type, uint32_t rel_idx,
                                     const Relation& rel, const Tuple& t) {
  const uint32_t record_size = rel.schema().record_size();
  std::vector<uint8_t> payload(sizeof(uint32_t) + record_size);
  std::memcpy(payload.data(), &rel_idx, sizeof(uint32_t));
  t.Serialize(rel.schema(), payload.data() + sizeof(uint32_t));
  if (payload.size() > wal_.max_payload()) {
    return Status::InvalidArgument(
        "tuple of relation '" + rel.name() + "' (" +
        std::to_string(payload.size()) + " bytes) exceeds the WAL record "
        "payload limit (" + std::to_string(wal_.max_payload()) + ")");
  }
  return wal_.Append(type, payload.data(),
                     static_cast<uint16_t>(payload.size()));
}

Status RecoveryManager::CommitAndApply(const Transaction& txn,
                                       uint64_t* out_txn_id) {
  if (needs_recovery_) {
    return Status::FailedPrecondition(
        "base relations hold a partially-applied transaction; run Recover() "
        "before committing new work");
  }
  const uint64_t txn_id = ++txn_seq_;
  if (out_txn_id != nullptr) *out_txn_id = txn_id;

  // Phase 1: stage the full net A/D set, in the exact order ApplyToBase
  // walks it, so redo replays the same write sequence.
  uint64_t count = 0;
  for (const auto& [rel, nc] : txn.changes()) {
    uint32_t rel_idx = 0;
    bool found = false;
    for (size_t i = 0; i < relations_.size(); ++i) {
      if (relations_[i] == rel) {
        rel_idx = static_cast<uint32_t>(i);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("transaction touches relation '" +
                                     rel->name() +
                                     "' which is not registered for recovery");
    }
    for (const Tuple& t : nc.deletes()) {
      VIEWMAT_RETURN_IF_ERROR(AppendIntent(kTxnDelete, rel_idx, *rel, t));
      ++count;
    }
    for (const Tuple& t : nc.inserts()) {
      VIEWMAT_RETURN_IF_ERROR(AppendIntent(kTxnInsert, rel_idx, *rel, t));
      ++count;
    }
  }

  // Phase 2: commit record + one sync makes the whole transaction durable.
  uint8_t commit_payload[sizeof(uint64_t) * 2];
  std::memcpy(commit_payload, &txn_id, sizeof(uint64_t));
  std::memcpy(commit_payload + sizeof(uint64_t), &count, sizeof(uint64_t));
  storage::Lsn commit_lsn = 0;
  VIEWMAT_RETURN_IF_ERROR(wal_.Append(kTxnCommit, commit_payload,
                                      sizeof(commit_payload), &commit_lsn));
  // A sync failure means the commit did not (knowably) reach the device:
  // nothing has touched base pages, so the failure is clean. When the
  // read-back probe also failed the commit's fate is ambiguous — the caller
  // resolves it by running Recover() and checking last_committed_txn()
  // against the id reported through `out_txn_id`. Under group commit the
  // sync is deferred to the caller's SyncWal(); last_committed_txn_ then
  // means "committed if the batch sync lands", and the durable high-water
  // is what Recover() reports.
  if (options_.sync_on_commit) {
    VIEWMAT_RETURN_IF_ERROR(wal_.Sync());
  }
  last_committed_txn_ = txn_id;

  // Phase 3: apply. Pages dirtied from here carry the commit LSN, so the
  // buffer pool cannot write them back ahead of the log (the sync above
  // already made that a no-op, but the stamp keeps the rule auditable).
  pool_->SetStampLsn(commit_lsn);
  Status applied = txn.ApplyToBase();
  if (!applied.ok()) {
    // The commit is durable but the base holds a partial application;
    // Recover() completes it.
    needs_recovery_ = true;
    return applied;
  }

  ++commits_since_checkpoint_;
  if (options_.checkpoint_every > 0 &&
      commits_since_checkpoint_ >= options_.checkpoint_every) {
    // Best-effort: a failed checkpoint leaves either the old log or an
    // empty-but-checkpointed log, both recoverable; surface the error so
    // the caller knows durability work was left pending.
    VIEWMAT_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::OK();
}

Status RecoveryManager::RedoOne(const RedoOp& op, RecoverStats* stats) {
  Relation* rel = relations_[op.rel_idx];
  if (op.is_insert) {
    // Idempotent insert: skip when the exact tuple is already stored.
    bool present = false;
    VIEWMAT_RETURN_IF_ERROR(
        rel->FindAllByKey(rel->KeyOf(op.tuple), [&](const Tuple& existing) {
          if (existing == op.tuple) {
            present = true;
            return false;
          }
          return true;
        }));
    if (present) {
      if (stats != nullptr) ++stats->ops_skipped;
      return Status::OK();
    }
    if (stats != nullptr) ++stats->ops_replayed;
    return rel->Insert(op.tuple);
  }
  // Idempotent delete: the tuple being already gone is success.
  Status st = rel->DeleteExact(op.tuple);
  if (st.code() == StatusCode::kNotFound) {
    if (stats != nullptr) ++stats->ops_skipped;
    return Status::OK();
  }
  if (st.ok() && stats != nullptr) ++stats->ops_replayed;
  return st;
}

Status RecoveryManager::Recover(RecoverStats* stats) {
  RecoverStats local;
  RecoverStats* out = stats != nullptr ? stats : &local;
  *out = RecoverStats();
  obs::Tracer* tracer = storage::TracerOf(pool_->disk()->tracker());
  const obs::ScopedSpan recover_span(tracer, "recover");

  // Analysis: group intents under the commits that cover them.
  struct CommittedTxn {
    uint64_t id = 0;
    storage::Lsn commit_lsn = 0;
    std::vector<RedoOp> ops;
  };
  std::vector<CommittedTxn> committed;
  std::vector<RedoOp> staged;  // intents not yet covered by a commit
  uint64_t checkpoint_floor = 0;
  Status decode = Status::OK();
  bool torn = false;
  obs::ScopedSpan analysis_span(tracer, "recover.wal_analysis");
  Status scanned = wal_.ScanWithLsn(
      [&](storage::Lsn lsn, uint8_t type, const uint8_t* payload,
          uint16_t len) {
        switch (type) {
          case kTxnInsert:
          case kTxnDelete: {
            if (len < sizeof(uint32_t)) {
              decode = Status::Internal("WAL intent record too short");
              return false;
            }
            RedoOp op;
            op.is_insert = (type == kTxnInsert);
            std::memcpy(&op.rel_idx, payload, sizeof(uint32_t));
            if (op.rel_idx >= relations_.size()) {
              decode = Status::Internal(
                  "WAL intent names relation index " +
                  std::to_string(op.rel_idx) + " but only " +
                  std::to_string(relations_.size()) + " are registered");
              return false;
            }
            const Schema& schema = relations_[op.rel_idx]->schema();
            if (len != sizeof(uint32_t) + schema.record_size()) {
              decode = Status::Internal("WAL intent payload size mismatch");
              return false;
            }
            op.tuple = Tuple::Deserialize(schema, payload + sizeof(uint32_t));
            staged.push_back(std::move(op));
            return true;
          }
          case kTxnCommit: {
            if (len != sizeof(uint64_t) * 2) {
              decode = Status::Internal("WAL commit payload size mismatch");
              return false;
            }
            CommittedTxn txn;
            std::memcpy(&txn.id, payload, sizeof(uint64_t));
            uint64_t count = 0;
            std::memcpy(&count, payload + sizeof(uint64_t), sizeof(uint64_t));
            if (count > staged.size()) {
              decode = Status::Internal(
                  "WAL commit covers " + std::to_string(count) +
                  " intents but only " + std::to_string(staged.size()) +
                  " are staged");
              return false;
            }
            txn.commit_lsn = lsn;
            // Adopt exactly the committing transaction's trailing `count`
            // intents. Anything staged before them is the durable residue
            // of a transaction that failed mid-logging and never committed
            // — discarded, same as AdFile's replay rule.
            txn.ops.assign(
                std::make_move_iterator(staged.end() - count),
                std::make_move_iterator(staged.end()));
            staged.clear();
            committed.push_back(std::move(txn));
            return true;
          }
          case kCheckpoint: {
            if (len != sizeof(uint64_t)) {
              decode = Status::Internal("WAL checkpoint payload size mismatch");
              return false;
            }
            std::memcpy(&checkpoint_floor, payload, sizeof(uint64_t));
            return true;
          }
          case kSessionStamp:
          case kSessionTable:
          case kSessionAbort:
            // Net-layer session records are opaque to recovery: they never
            // carry redo work and must not disturb the staged-intent
            // grouping (a stamp is appended BEFORE its transaction's
            // intents, so skipping it leaves commit adoption intact). The
            // net layer scans for them itself (SessionServer::
            // RebuildSessions).
            return true;
          default:
            decode = Status::Internal("unknown WAL record type " +
                                      std::to_string(type));
            return false;
        }
      },
      &torn);
  analysis_span.End();
  VIEWMAT_RETURN_IF_ERROR(scanned);
  VIEWMAT_RETURN_IF_ERROR(decode);
  out->torn_tail = torn;
  // `staged` now holds the torn tail of a never-committed transaction (if
  // any); it is deliberately dropped — nothing of it touched base pages.

  // Redo, in log order. Every replayed record is already durable, so page
  // stamps stay at or below the log's durable LSN and write-back is free.
  obs::ScopedSpan redo_span(tracer, "recover.wal_redo");
  for (const CommittedTxn& txn : committed) {
    pool_->SetStampLsn(txn.commit_lsn);
    for (const RedoOp& op : txn.ops) {
      VIEWMAT_RETURN_IF_ERROR(RedoOne(op, out));
    }
    ++out->txns_replayed;
  }
  redo_span.End();

  // The committed high-water mark survives three ways: the in-memory floor
  // (this process issued the commits), the checkpoint record, and the
  // newest commit record scanned. Max of all three covers every crash
  // interleaving, including a checkpoint whose truncate landed but whose
  // scan floor a fresh manager has never seen. Under group commit the
  // in-memory floor lies: CommitAndApply advances it before the batch sync,
  // so a crash can lose commits the floor still counts — only the durable
  // log decides then.
  uint64_t high = options_.sync_on_commit ? last_committed_txn_ : 0;
  if (checkpoint_floor > high) high = checkpoint_floor;
  if (!committed.empty() && committed.back().id > high) {
    high = committed.back().id;
  }
  last_committed_txn_ = high;
  if (txn_seq_ < high) txn_seq_ = high;
  out->committed_high = high;

  // Make the recovered state durable so a crash right after recovery does
  // not have to repeat the redo work (it could, safely — idempotence).
  VIEWMAT_RETURN_IF_ERROR(pool_->FlushAll());
  needs_recovery_ = false;
  ++recoveries_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("recovery_runs_total")->Increment();
    metrics_->GetCounter("recovery_txns_replayed_total")
        ->Increment(out->txns_replayed);
    metrics_->GetCounter("recovery_ops_replayed_total")
        ->Increment(out->ops_replayed);
    metrics_->GetCounter("recovery_ops_skipped_total")
        ->Increment(out->ops_skipped);
    if (out->torn_tail) {
      metrics_->GetCounter("recovery_torn_tails_total")->Increment();
    }
  }
  return Status::OK();
}

Status RecoveryManager::Checkpoint() { return Checkpoint({}); }

Status RecoveryManager::Checkpoint(const std::vector<ExtraRecord>& extras) {
  // Log size and age are read before the truncate discards them.
  const uint64_t retired_records = wal_.record_count();
  const uint64_t age_commits = commits_since_checkpoint_;
  // Every committed transaction's effects must be on the device before the
  // log that would redo them is discarded.
  VIEWMAT_RETURN_IF_ERROR(pool_->FlushAll());
  uint8_t payload[sizeof(uint64_t)];
  std::memcpy(payload, &last_committed_txn_, sizeof(uint64_t));
  std::vector<storage::WriteAheadLog::TruncateRecord> records;
  records.push_back({kCheckpoint, payload, sizeof(payload)});
  for (const ExtraRecord& extra : extras) {
    records.push_back({extra.type, extra.payload.data(),
                       static_cast<uint16_t>(extra.payload.size())});
  }
  VIEWMAT_RETURN_IF_ERROR(
      wal_.TruncateWithRecords(records.data(), records.size()));
  commits_since_checkpoint_ = 0;
  ++checkpoints_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("checkpoints_total")->Increment();
    metrics_
        ->GetHistogram("checkpoint_log_records", {},
                       {1, 8, 64, 512, 4096, 32768})
        ->Observe(static_cast<double>(retired_records));
    metrics_
        ->GetHistogram("checkpoint_age_commits", {}, {1, 2, 4, 8, 16, 32, 64})
        ->Observe(static_cast<double>(age_commits));
  }
  return Status::OK();
}

}  // namespace viewmat::db
