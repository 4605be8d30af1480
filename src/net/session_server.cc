#include "net/session_server.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/logging.h"
#include "sim/oracle.h"
#include "workload/workload.h"

namespace viewmat::net {

namespace {

/// Restart rounds before the server stays down for good (the chaos
/// oracle's event cap then flags the run instead of looping forever).
constexpr int kMaxRestartRounds = 16;
/// Recovery attempts inside one live ambiguity resolution (mirrors the
/// crash oracle's headroom for a crash landing inside recovery itself).
constexpr int kMaxRecoverAttempts = 8;

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t off = out->size();
  out->resize(off + sizeof(v));
  std::memcpy(out->data() + off, &v, sizeof(v));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t off = out->size();
  out->resize(off + sizeof(v));
  std::memcpy(out->data() + off, &v, sizeof(v));
}

template <typename T>
bool GetVal(const uint8_t* data, uint16_t len, size_t* off, T* out) {
  if (*off + sizeof(T) > len) return false;
  std::memcpy(out, data + *off, sizeof(T));
  *off += sizeof(T);
  return true;
}

/// A decoded kSessionStamp record.
struct Stamp {
  uint64_t session = 0;
  uint64_t seq = 0;
  uint64_t txn = 0;
  std::vector<std::pair<int64_t, double>> victims;
};

bool DecodeStamp(const uint8_t* data, uint16_t len, Stamp* out) {
  size_t off = 0;
  uint32_t n = 0;
  if (!GetVal(data, len, &off, &out->session) ||
      !GetVal(data, len, &off, &out->seq) ||
      !GetVal(data, len, &off, &out->txn) || !GetVal(data, len, &off, &n)) {
    return false;
  }
  out->victims.clear();
  out->victims.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int64_t key = 0;
    double delta = 0.0;
    if (!GetVal(data, len, &off, &key) || !GetVal(data, len, &off, &delta)) {
      return false;
    }
    out->victims.emplace_back(key, delta);
  }
  return off == len;
}

}  // namespace

uint64_t DigestMultiset(const sim::ViewMultiset& m) {
  sim::MultisetDigest digest;
  for (const auto& [t, count] : m) digest.Add(t, count);
  return digest.value();
}

void RefreshDaemon::OnMessage(NodeId from, const Message& msg) {
  if (msg.type != MsgType::kRefreshPing) return;
  ++pings_acked_;
  Message ack;
  ack.type = MsgType::kRefreshAck;
  ack.seq_no = msg.seq_no;
  ack.wstatus = WireStatus::kOk;
  (void)net_->Send(node_, from, ack);
}

StatusOr<std::unique_ptr<SessionServer>> SessionServer::Create(
    const Options& options) {
  if (options.driver == nullptr) {
    return Status::InvalidArgument(
        "SessionServer::Options::driver must be non-null");
  }
  if (options.events == nullptr) {
    return Status::InvalidArgument(
        "SessionServer::Options::events must be non-null");
  }
  if (options.net == nullptr) {
    return Status::InvalidArgument(
        "SessionServer::Options::net must be non-null");
  }
  if (options.max_inflight == 0) {
    return Status::InvalidArgument(
        "SessionServer::Options::max_inflight must be > 0");
  }
  if (options.max_sessions == 0) {
    return Status::InvalidArgument(
        "SessionServer::Options::max_sessions must be > 0");
  }
  if (options.restart_delay_ms <= 0.0) {
    return Status::InvalidArgument(
        "SessionServer::Options::restart_delay_ms must be > 0");
  }
  if (options.refresh_every_ms < 0.0) {
    return Status::InvalidArgument(
        "SessionServer::Options::refresh_every_ms must be >= 0");
  }
  return std::unique_ptr<SessionServer>(new SessionServer(options));
}

SessionServer::SessionServer(const Options& options)
    : options_(options),
      shadow_(sim::MakeShadow(*options.driver->scenario())) {}

void SessionServer::Counter(const char* name) {
  if (options_.metrics != nullptr) {
    options_.metrics->GetCounter(name)->Increment();
  }
}

SessionServer::SessionState* SessionServer::Session(uint64_t session_id) {
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) return &it->second;
  if (sessions_.size() >= options_.max_sessions) return nullptr;
  return &sessions_[session_id];
}

void SessionServer::Reply(NodeId dst, const Message& reply, double delay_ms) {
  (void)options_.net->Send(options_.node, dst, reply, delay_ms);
}

void SessionServer::OnMessage(NodeId from, const Message& msg) {
  if (down_) {
    // A crashed process answers nothing; clients time out and retry.
    ++dropped_while_down_;
    return;
  }
  switch (msg.type) {
    case MsgType::kOpenSession: {
      // Opening is idempotent and cheap: no queue, no dedup needed.
      SessionState* s = Session(msg.session_id);
      Message ack;
      ack.type = MsgType::kOpenAck;
      ack.session_id = msg.session_id;
      ack.seq_no = msg.seq_no;
      ack.wstatus = s != nullptr ? WireStatus::kOk : WireStatus::kOverloaded;
      Reply(from, ack);
      break;
    }
    case MsgType::kCommit:
    case MsgType::kQuery:
      HandleRequest(from, msg);
      break;
    case MsgType::kRefreshAck:
      refresh_pending_ = false;
      if (!refresh_link_up_) {
        refresh_link_up_ = true;
        Counter("net_refresh_link_recovered_total");
      }
      break;
    default:
      break;  // a server never receives replies; ignore stray frames
  }
  // Only client traffic counts as activity and (re)arms the health tick.
  // The refresher's own ack must not: ping → ack → re-arm would be a
  // self-sustaining loop that keeps an otherwise idle queue alive forever.
  if (msg.type == MsgType::kOpenSession || msg.type == MsgType::kCommit ||
      msg.type == MsgType::kQuery) {
    activity_since_tick_ = true;
    ArmRefreshTick();
  }
}

void SessionServer::HandleRequest(NodeId from, const Message& msg) {
  SessionState* s = Session(msg.session_id);
  if (s == nullptr) {
    Message reply;
    reply.type = MsgType::kReply;
    reply.session_id = msg.session_id;
    reply.seq_no = msg.seq_no;
    reply.wstatus = WireStatus::kOverloaded;
    ++shed_requests_;
    Counter("net_requests_shed_total");
    Reply(from, reply);
    return;
  }
  // Redelivery fast path — commits only (a re-executed query is merely
  // wasted work, and its fresh answer is exact at the fresh journal
  // prefix; a re-executed commit would be a correctness bug).
  if (msg.type == MsgType::kCommit && msg.seq_no <= s->last_applied) {
    const obs::ScopedSpan span(options_.tracer, "net.redeliver");
    ++redelivered_hits_;
    Counter("net_redelivered_commits_total");
    if (s->has_cached && msg.seq_no == s->cached.seq_no) {
      Reply(from, s->cached);
    } else {
      // Older than the cached reply: the client necessarily advanced past
      // it once already, so a synthesized kOk is faithful.
      Message reply;
      reply.type = MsgType::kReply;
      reply.session_id = msg.session_id;
      reply.seq_no = msg.seq_no;
      reply.wstatus = WireStatus::kOk;
      Reply(from, reply);
    }
    return;
  }
  // Admission control: shed above the inflight bound.
  const size_t inflight = queue_.size() + (processing_ ? 1 : 0);
  if (inflight >= options_.max_inflight) {
    Message reply;
    reply.type = MsgType::kReply;
    reply.session_id = msg.session_id;
    reply.seq_no = msg.seq_no;
    reply.wstatus = WireStatus::kOverloaded;
    ++shed_requests_;
    Counter("net_requests_shed_total");
    Reply(from, reply);
    return;
  }
  queue_.emplace_back(from, msg);
  StartNext();
}

void SessionServer::StartNext() {
  if (down_ || processing_ || queue_.empty()) return;
  const auto [from, msg] = queue_.front();
  queue_.pop_front();
  processing_ = true;
  Message reply;
  double service_ms = 0.01;
  if (!Execute(msg, &reply, &service_ms)) {
    // Crashed mid-execution; EnterCrashed already reset the pipeline.
    return;
  }
  // The reply leaves (and the next request starts) once the model service
  // time has elapsed — the engine's CostTracker is the clock source, so
  // heavier strategies really do hold the pipeline longer.
  const uint64_t epoch = epoch_;
  options_.events->Post(service_ms, [this, epoch, from, reply]() {
    if (epoch != epoch_) return;  // a crash superseded this completion
    processing_ = false;
    if (!down_) Reply(from, reply);
    StartNext();
  });
}

bool SessionServer::Execute(const Message& msg, Message* reply,
                            double* service_ms) {
  sim::StrategyDriver* driver = options_.driver;
  const double t0 = driver->tracker()->TotalMs();
  reply->type = MsgType::kReply;
  reply->session_id = msg.session_id;
  reply->seq_no = msg.seq_no;
  SessionState* s = Session(msg.session_id);
  VIEWMAT_CHECK(s != nullptr);  // admission already pinned the session

  if (msg.type == MsgType::kCommit) {
    // A duplicate can sit in the queue behind the copy that applied it;
    // re-check the dedup floor at execution time.
    if (msg.seq_no <= s->last_applied) {
      const obs::ScopedSpan span(options_.tracer, "net.redeliver");
      ++redelivered_hits_;
      Counter("net_redelivered_commits_total");
      if (s->has_cached && msg.seq_no == s->cached.seq_no) {
        *reply = s->cached;
      } else {
        reply->wstatus = WireStatus::kOk;
      }
      *service_ms = 0.01;
      return true;
    }
    for (const auto& [key, delta] : msg.victims) {
      (void)delta;
      if (key < 0 || key >= shadow_.n) {
        reply->wstatus = WireStatus::kRejected;
        ++rejected_commits_;
        *service_ms = 0.01;
        return true;
      }
    }
    uint64_t txn_id = 0;
    switch (ApplyCommit(msg, &txn_id)) {
      case CommitOutcome::kCrash:
        EnterCrashed();
        return false;
      case CommitOutcome::kNotCommitted:
        reply->wstatus = WireStatus::kRejected;
        ++rejected_commits_;
        Counter("net_commits_rejected_total");
        break;
      case CommitOutcome::kCommitted:
        reply->wstatus = WireStatus::kOk;
        reply->txn_id = txn_id;
        RecordApplied(msg, txn_id, *reply);
        if (const Status st = MaybeSessionCheckpoint();
            !st.ok() && driver->disk()->crashed()) {
          // The commit IS applied and journaled; the crash only costs the
          // reply. The client's retry is answered from the rebuilt dedup
          // table.
          EnterCrashed();
          return false;
        }
        break;
    }
  } else {  // kQuery
    sim::MultisetDigest digest;
    if (!sim::DigestQuery(driver, msg.lo, msg.hi, &digest).ok()) {
      if (driver->disk()->crashed()) {
        EnterCrashed();
        return false;
      }
      reply->wstatus = WireStatus::kRejected;
    } else {
      reply->wstatus = WireStatus::kOk;
      reply->answer_digest = digest.value();
      reply->journal_len = journal_.size();
      reply->lo = msg.lo;
      reply->hi = msg.hi;
      reply->degraded = !refresh_link_up_;
      if (reply->degraded) {
        ++degraded_replies_;
        Counter("net_degraded_replies_total");
      }
    }
  }
  *service_ms = std::max(0.01, driver->tracker()->TotalMs() - t0);
  return true;
}

SessionServer::CommitOutcome SessionServer::ApplyCommit(const Message& msg,
                                                        uint64_t* txn_id) {
  sim::StrategyDriver* driver = options_.driver;
  const uint64_t predicted = driver->txn_seq() + 1;

  // 1. Stamp first: (session, seq, predicted txn id, victims) into the
  //    recovery WAL. For WAL-committing strategies the commit's own sync
  //    covers it (prefix durability); deferred/hybrid commit through the
  //    AD log, so the stamp is synced explicitly before the commit runs.
  //    Either way: commit durable ⇒ stamp durable.
  std::vector<uint8_t> payload;
  PutU64(&payload, msg.session_id);
  PutU64(&payload, msg.seq_no);
  PutU64(&payload, predicted);
  PutU32(&payload, static_cast<uint32_t>(msg.victims.size()));
  for (const auto& [key, delta] : msg.victims) {
    PutU64(&payload, static_cast<uint64_t>(key));
    uint64_t bits = 0;
    std::memcpy(&bits, &delta, sizeof(bits));
    PutU64(&payload, bits);
  }
  Status st = driver->recovery()->wal()->Append(
      db::RecoveryManager::kSessionStamp, payload.data(),
      static_cast<uint16_t>(payload.size()));
  if (st.ok() && driver->journaled()) {
    st = driver->recovery()->SyncWal();
  }
  if (!st.ok()) {
    // No transaction id was drawn: provably nothing committed.
    return driver->disk()->crashed() ? CommitOutcome::kCrash
                                     : CommitOutcome::kNotCommitted;
  }

  // 2. Commit through the engine.
  sim::StagedTxn staged(shadow_, driver->base());
  for (const auto& [key, delta] : msg.victims) {
    staged.Set(key, staged.value(key) + delta);
  }
  const uint64_t seq_before = driver->txn_seq();
  st = driver->OnTransaction(staged.txn());
  if (st.ok()) {
    *txn_id = driver->txn_seq();
    staged.CommitTo(&shadow_);
    return CommitOutcome::kCommitted;
  }
  if (driver->disk()->crashed()) return CommitOutcome::kCrash;
  if (driver->txn_seq() == seq_before) {
    // Rejected before an id was issued: no commit record can exist.
    return CommitOutcome::kNotCommitted;
  }
  // 3. Ambiguous on a live device: the recovered log's committed
  //    high-water mark is the arbiter (the crash-oracle rule). A crash
  //    during resolution falls back to the restart path, which resolves
  //    the same question from the same durable evidence.
  bool recovered = false;
  for (int attempt = 0; attempt < kMaxRecoverAttempts; ++attempt) {
    if (driver->disk()->crashed()) return CommitOutcome::kCrash;
    if (driver->Recover().ok()) {
      recovered = true;
      break;
    }
  }
  if (!recovered) return CommitOutcome::kCrash;
  ++ambiguous_resolved_;
  Counter("net_ambiguous_commits_resolved_total");
  if (driver->committed_txn_high_water() >= predicted) {
    *txn_id = predicted;
    staged.CommitTo(&shadow_);
    return CommitOutcome::kCommitted;
  }
  return CommitOutcome::kNotCommitted;
}

void SessionServer::RecordApplied(const Message& msg, uint64_t txn_id,
                                  const Message& reply) {
  JournalEntry entry;
  entry.session = msg.session_id;
  entry.seq = msg.seq_no;
  entry.txn_id = txn_id;
  entry.victims = msg.victims;
  journal_.push_back(std::move(entry));
  journal_index_.emplace(msg.session_id, msg.seq_no);
  SessionState* s = Session(msg.session_id);
  s->last_applied = msg.seq_no;
  s->cached = reply;
  s->has_cached = true;
  ++commits_applied_;
  Counter("net_commits_applied_total");
}

Status SessionServer::MaybeSessionCheckpoint() {
  if (options_.checkpoint_every == 0) return Status::OK();
  if (++commits_since_checkpoint_ < options_.checkpoint_every) {
    return Status::OK();
  }
  // Snapshot the dedup floors; the snapshot rides the checkpoint's atomic
  // head-page write, so the WAL can never hold a commit history the table
  // does not summarize.
  std::vector<uint8_t> payload;
  PutU32(&payload, static_cast<uint32_t>(sessions_.size()));
  for (const auto& [id, state] : sessions_) {
    PutU64(&payload, id);
    PutU64(&payload, state.last_applied);
  }
  db::RecoveryManager::ExtraRecord extra;
  extra.type = db::RecoveryManager::kSessionTable;
  extra.payload = std::move(payload);
  VIEWMAT_RETURN_IF_ERROR(options_.driver->recovery()->Checkpoint({extra}));
  commits_since_checkpoint_ = 0;
  ++session_checkpoints_;
  Counter("net_session_checkpoints_total");
  return Status::OK();
}

void SessionServer::EnterCrashed() {
  if (down_) return;
  down_ = true;
  ++crashes_;
  ++epoch_;  // invalidates in-flight completion events
  queue_.clear();
  processing_ = false;
  refresh_pending_ = false;
  Counter("net_server_crashes_total");
  const uint64_t epoch = epoch_;
  options_.events->Post(options_.restart_delay_ms, [this, epoch]() {
    if (down_ && epoch == epoch_) AttemptRestart();
  });
}

void SessionServer::AttemptRestart() {
  sim::StrategyDriver* driver = options_.driver;
  if (driver->disk()->crashed()) driver->disk()->Restart();
  // Volatile state died with the crash: both the strategy's commit log
  // (AD log for deferred/hybrid) and the recovery WAL carrying the
  // stamps must drop their staged tails before anything syncs again.
  Status st = driver->DiscardVolatileWal();
  if (st.ok()) st = driver->recovery()->DiscardVolatileWal();
  if (st.ok()) st = driver->Recover();
  if (st.ok()) st = RebuildSessions();
  if (st.ok()) st = RebuildShadow();
  if (!st.ok()) {
    if (++restart_round_ >= kMaxRestartRounds) return;  // stay down
    const uint64_t epoch = epoch_;
    options_.events->Post(options_.restart_delay_ms, [this, epoch]() {
      if (down_ && epoch == epoch_) AttemptRestart();
    });
    return;
  }
  restart_round_ = 0;
  down_ = false;
  refresh_link_up_ = true;
  ++recoveries_;
  Counter("net_server_recoveries_total");
}

Status SessionServer::RebuildSessions() {
  sim::StrategyDriver* driver = options_.driver;
  std::map<uint64_t, uint64_t> table;  // session -> checkpointed floor
  std::vector<Stamp> stamps;
  std::set<uint64_t> aborted;  // txn ids tombstoned by earlier rebuilds
  Status decode_error = Status::OK();
  const Status scanned = driver->recovery()->wal()->Scan(
      [&](uint8_t type, const uint8_t* payload, uint16_t len) {
        if (type == db::RecoveryManager::kSessionAbort) {
          uint64_t txn = 0;
          size_t off = 0;
          if (!GetVal(payload, len, &off, &txn) || off != len) {
            decode_error = Status::Internal("bad kSessionAbort record");
            return false;
          }
          aborted.insert(txn);
        } else if (type == db::RecoveryManager::kSessionTable) {
          size_t off = 0;
          uint32_t count = 0;
          if (!GetVal(payload, len, &off, &count)) {
            decode_error = Status::Internal("bad kSessionTable record");
            return false;
          }
          for (uint32_t i = 0; i < count; ++i) {
            uint64_t session = 0, floor = 0;
            if (!GetVal(payload, len, &off, &session) ||
                !GetVal(payload, len, &off, &floor)) {
              decode_error = Status::Internal("bad kSessionTable record");
              return false;
            }
            table[session] = std::max(table[session], floor);
          }
        } else if (type == db::RecoveryManager::kSessionStamp) {
          Stamp stamp;
          if (!DecodeStamp(payload, len, &stamp)) {
            decode_error = Status::Internal("bad kSessionStamp record");
            return false;
          }
          stamps.push_back(std::move(stamp));
        }
        return true;
      });
  VIEWMAT_RETURN_IF_ERROR(scanned);
  VIEWMAT_RETURN_IF_ERROR(decode_error);

  // A failed attempt's predicted id is usually re-predicted by later
  // attempts until some attempt consumes it — and after that every
  // prediction is larger. So among stamps naming one txn id, only the
  // LAST in log order can belong to the attempt that really committed
  // it. The one exception is an id the engine durably DREW but never
  // committed (crash between the id draw and the commit record): that id
  // is skipped forever, no later stamp ever names it, and once the
  // high-water mark passes it the dead stamp would look committed. Those
  // ids are tombstoned with kSessionAbort records below, at the only
  // moment they are detectable: high < txn <= recovered txn_seq.
  std::map<uint64_t, size_t> last_stamp_for_txn;
  for (size_t i = 0; i < stamps.size(); ++i) {
    last_stamp_for_txn[stamps[i].txn] = i;
  }
  const uint64_t high = driver->committed_txn_high_water();

  sessions_.clear();
  for (const auto& [session, floor] : table) {
    sessions_[session].last_applied = floor;
  }
  // Dead stamps first: an id drawn past the committed high-water mark can
  // never be drawn (or committed) again, so any stamp naming it is a
  // permanent false positive. The tombstone is appended before any new
  // commit's stamp, so the same sync that could advance the high-water
  // mark past the dead id makes the tombstone durable first (prefix
  // durability); if it is lost with the crash, nothing after it was
  // durable either and the next rebuild re-derives it from the same
  // evidence.
  const uint64_t drawn = driver->txn_seq();
  for (const Stamp& stamp : stamps) {
    if (stamp.txn == 0 || stamp.txn <= high || stamp.txn > drawn) continue;
    if (!aborted.insert(stamp.txn).second) continue;
    std::vector<uint8_t> payload;
    PutU64(&payload, stamp.txn);
    VIEWMAT_RETURN_IF_ERROR(driver->recovery()->wal()->Append(
        db::RecoveryManager::kSessionAbort, payload.data(),
        static_cast<uint16_t>(payload.size())));
    Counter("net_session_aborts_total");
  }

  for (size_t i = 0; i < stamps.size(); ++i) {
    const Stamp& stamp = stamps[i];
    if (stamp.txn == 0 || stamp.txn > high) continue;
    if (aborted.count(stamp.txn) != 0) continue;
    if (last_stamp_for_txn[stamp.txn] != i) continue;
    ++stamps_recovered_;
    SessionState& s = sessions_[stamp.session];
    if (stamp.seq > s.last_applied) {
      s.last_applied = stamp.seq;
      s.cached = Message();
      s.cached.type = MsgType::kReply;
      s.cached.session_id = stamp.session;
      s.cached.seq_no = stamp.seq;
      s.cached.wstatus = WireStatus::kOk;
      s.cached.txn_id = stamp.txn;
      s.has_cached = true;
    }
    // The journal is the harness's in-memory ledger; it survives a device
    // crash, so only the commit in flight AT the crash can be missing.
    if (journal_index_.emplace(stamp.session, stamp.seq).second) {
      JournalEntry entry;
      entry.session = stamp.session;
      entry.seq = stamp.seq;
      entry.txn_id = stamp.txn;
      entry.victims = stamp.victims;
      entry.reconciled = true;
      journal_.push_back(std::move(entry));
      ++journal_reconciled_;
      ++commits_applied_;
      Counter("net_journal_reconciled_total");
    }
  }
  return Status::OK();
}

Status SessionServer::RebuildShadow() {
  sim::ViewMultiset base;
  VIEWMAT_RETURN_IF_ERROR(options_.driver->VisibleBase(&base));
  for (const auto& [tuple, count] : base) {
    (void)count;
    const int64_t key = tuple.at(workload::Scenario::kFieldK1).AsInt64();
    if (key < 0 || key >= shadow_.n) continue;
    shadow_.v[key] = tuple.at(workload::Scenario::kFieldV).AsDouble();
  }
  return Status::OK();
}

void SessionServer::ArmRefreshTick() {
  if (options_.refresh_every_ms <= 0.0 || refresh_tick_armed_ || down_) {
    return;
  }
  refresh_tick_armed_ = true;
  activity_since_tick_ = false;
  options_.events->Post(options_.refresh_every_ms,
                        [this]() { RefreshTick(); });
}

void SessionServer::RefreshTick() {
  refresh_tick_armed_ = false;
  if (down_) return;
  if (refresh_pending_ && refresh_link_up_) {
    // The previous ping was never acked: the refresh path is isolated.
    refresh_link_up_ = false;
    Counter("net_refresh_link_down_total");
  }
  refresh_pending_ = true;
  Message ping;
  ping.type = MsgType::kRefreshPing;
  ping.seq_no = ++refresh_ping_seq_;
  (void)options_.net->Send(options_.node, options_.refresher, ping);
  // Re-arm only while traffic keeps flowing, so an idle simulation's
  // event queue drains instead of ticking forever.
  if (activity_since_tick_) ArmRefreshTick();
}

}  // namespace viewmat::net
