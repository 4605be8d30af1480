#ifndef VIEWMAT_NET_SESSION_SERVER_H_
#define VIEWMAT_NET_SESSION_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/strategy_driver.h"

namespace viewmat::net {

/// FNV-1a digest of a counted tuple multiset — how query answers travel on
/// the wire (and how the chaos oracle compares them to expected answers).
uint64_t DigestMultiset(const sim::ViewMultiset& m);

/// The refresher-side endpoint: acknowledges kRefreshPing so the server
/// can observe refresh-link health. Partitioning this node away from the
/// server is how chaos runs isolate the refresh path and force degraded
/// reads.
class RefreshDaemon : public Endpoint {
 public:
  RefreshDaemon(NodeId node, NetworkInterface* net)
      : node_(node), net_(net) {}

  void OnMessage(NodeId from, const Message& msg) override;

  uint64_t pings_acked() const { return pings_acked_; }

 private:
  NodeId node_;
  NetworkInterface* net_;
  uint64_t pings_acked_ = 0;
};

/// Request/response front end over a StrategyDriver engine: the
/// exactly-once half of the wire protocol.
///
/// ## Dedup (exactly-once effects over at-least-once delivery)
///
/// Every request carries (session_id, seq_no); the server keeps, per
/// session, the last applied seq and the cached reply for it. A
/// redelivered seq <= last_applied is answered from cache — never
/// re-executed — so client retries are harmless no matter how the network
/// mangles delivery. Duplicates are filtered BOTH at admission and again
/// at execution (two copies of one commit can both be sitting in the
/// queue). Sessions are keyed by the client's node id, so a server that
/// lost a session (bounded table, restart) resurrects it on first contact;
/// seq gaps are accepted (a lost query's ack is side-effect-free).
///
/// ## Durable stamps (a crash cannot forget an acknowledged commit)
///
/// Before a commit executes, the server appends a kSessionStamp —
/// (session, seq, predicted txn id, the victim deltas) — to the
/// RecoveryManager's WAL. For strategies that commit through that WAL the
/// commit's own sync makes the stamp durable first (prefix durability);
/// for deferred/hybrid (which commit through the AD log) the stamp is
/// synced explicitly before the commit starts. After a crash,
/// RebuildSessions() scans the WAL: a stamp is believed iff its txn id is
/// <= the recovered committed high-water mark AND it is the last stamp in
/// log order naming that txn id (a failed attempt's predicted id can be
/// re-predicted by a later attempt; only the attempt that actually
/// consumed the id stamps it last). Valid stamps restore the dedup floor
/// and reconcile the commit journal, so an acked commit is never lost and
/// a client retry of it is answered from cache, never re-applied. The
/// dedup table itself rides checkpoints as a kSessionTable record in the
/// same atomic truncation (RecoveryManager::Checkpoint extras), bounding
/// the WAL scan.
///
/// ## Ambiguity, crashes, degradation
///
/// A failed commit whose transaction id provably never advanced is
/// answered kRejected (the client retries the same seq). Any outcome the
/// server cannot prove on the spot — sync error, crash mid-commit — routes
/// through EnterCrashed(): queued requests are dropped (clients time out
/// and retry), and a restart event later re-opens the engine via
/// Restart + DiscardVolatileWal + Recover + RebuildSessions, which
/// resolves the ambiguity against durable state. Admission control sheds
/// load above Options::max_inflight with kOverloaded replies. A periodic
/// refresh ping watches the server→refresher link; while it is unacked
/// (partitioned), query replies are flagged degraded.
class SessionServer : public Endpoint {
 public:
  /// One applied commit, in application order — the server-side ledger the
  /// chaos oracle audits. `reconciled` marks entries restored from WAL
  /// stamps after a crash rather than observed live.
  struct JournalEntry {
    uint64_t session = 0;
    uint64_t seq = 0;
    uint64_t txn_id = 0;
    std::vector<std::pair<int64_t, double>> victims;
    bool reconciled = false;
  };

  struct Options {
    /// The engine. Not owned; must outlive the server.
    sim::StrategyDriver* driver = nullptr;
    /// Event loop / timer source (owns virtual time). Not owned.
    Network* events = nullptr;
    /// Reply path — the faulty decorator in chaos runs. Not owned.
    NetworkInterface* net = nullptr;
    NodeId node = 0;
    NodeId refresher = 1;
    /// Admission bound: queued + executing requests beyond this are shed
    /// with kOverloaded.
    size_t max_inflight = 8;
    /// Dedup-table bound (sessions resurrect on demand, so eviction is
    /// bounded-memory housekeeping, not correctness).
    size_t max_sessions = 64;
    /// Applied commits between dedup-table checkpoints (0 = never).
    size_t checkpoint_every = 16;
    /// Virtual time from crash to the first restart attempt.
    double restart_delay_ms = 30.0;
    /// Refresh-link ping cadence (0 = no pings, link assumed healthy).
    /// Pings re-arm only while requests keep arriving, so an idle server
    /// lets the event queue drain.
    double refresh_every_ms = 50.0;
    obs::MetricsRegistry* metrics = nullptr;  ///< may be null
    obs::Tracer* tracer = nullptr;            ///< may be null
  };

  /// Validates options (named-field errors) and builds the server with its
  /// shadow of the engine's updatable column.
  static StatusOr<std::unique_ptr<SessionServer>> Create(
      const Options& options);

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  void OnMessage(NodeId from, const Message& msg) override;

  // --- Oracle / test introspection ----------------------------------------
  const std::vector<JournalEntry>& journal() const { return journal_; }
  bool down() const { return down_; }
  bool refresh_link_up() const { return refresh_link_up_; }
  sim::StrategyDriver* driver() { return options_.driver; }

  uint64_t commits_applied() const { return commits_applied_; }
  uint64_t crashes() const { return crashes_; }
  uint64_t recoveries() const { return recoveries_; }
  uint64_t redelivered_hits() const { return redelivered_hits_; }
  uint64_t shed_requests() const { return shed_requests_; }
  uint64_t rejected_commits() const { return rejected_commits_; }
  uint64_t ambiguous_resolved() const { return ambiguous_resolved_; }
  uint64_t session_checkpoints() const { return session_checkpoints_; }
  uint64_t stamps_recovered() const { return stamps_recovered_; }
  uint64_t journal_reconciled() const { return journal_reconciled_; }
  uint64_t degraded_replies() const { return degraded_replies_; }
  uint64_t dropped_while_down() const { return dropped_while_down_; }

 private:
  struct SessionState {
    uint64_t last_applied = 0;
    bool has_cached = false;
    Message cached;  ///< reply for seq == last_applied
  };

  /// What one commit attempt concluded.
  enum class CommitOutcome {
    kCommitted,     ///< applied; txn id known
    kNotCommitted,  ///< provably not applied; safe to reply kRejected
    kCrash,         ///< unknowable live — EnterCrashed resolves it durably
  };

  explicit SessionServer(const Options& options);

  void HandleRequest(NodeId from, const Message& msg);
  void StartNext();
  /// Executes one admitted request; fills `reply` and the model service
  /// time. Returns false when the server crashed mid-execution (no reply).
  bool Execute(const Message& msg, Message* reply, double* service_ms);
  CommitOutcome ApplyCommit(const Message& msg, uint64_t* txn_id);
  /// Records an applied commit: journal, dedup floor, shadow advance.
  void RecordApplied(const Message& msg, uint64_t txn_id,
                     const Message& reply);

  void EnterCrashed();
  void AttemptRestart();
  Status RebuildSessions();
  Status RebuildShadow();
  Status MaybeSessionCheckpoint();

  void ArmRefreshTick();
  void RefreshTick();

  SessionState* Session(uint64_t session_id);
  void Reply(NodeId dst, const Message& reply, double delay_ms = 0.0);
  void Counter(const char* name);

  Options options_;
  sim::ShadowOracle shadow_;

  bool down_ = false;
  uint64_t epoch_ = 0;  ///< bumped per crash; stale events check it
  bool processing_ = false;
  std::deque<std::pair<NodeId, Message>> queue_;
  std::map<uint64_t, SessionState> sessions_;
  std::vector<JournalEntry> journal_;
  std::set<std::pair<uint64_t, uint64_t>> journal_index_;
  uint64_t commits_since_checkpoint_ = 0;

  bool refresh_tick_armed_ = false;
  bool refresh_pending_ = false;
  bool refresh_link_up_ = true;
  bool activity_since_tick_ = false;
  uint64_t refresh_ping_seq_ = 0;
  int restart_round_ = 0;

  uint64_t commits_applied_ = 0;
  uint64_t crashes_ = 0;
  uint64_t recoveries_ = 0;
  uint64_t redelivered_hits_ = 0;
  uint64_t shed_requests_ = 0;
  uint64_t rejected_commits_ = 0;
  uint64_t ambiguous_resolved_ = 0;
  uint64_t session_checkpoints_ = 0;
  uint64_t stamps_recovered_ = 0;
  uint64_t journal_reconciled_ = 0;
  uint64_t degraded_replies_ = 0;
  uint64_t dropped_while_down_ = 0;
};

}  // namespace viewmat::net

#endif  // VIEWMAT_NET_SESSION_SERVER_H_
