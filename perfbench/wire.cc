// wire_deferred: four closed-loop SessionClients over a clean Network drive
// a SessionServer in front of deferred Model 1 (70% updates, every commit
// syncs its WAL session stamp). The buffer pool holds base + view + AD, so a
// net or session-layer change shows undiluted by storage misses. The only
// workload through net and the session layer.
//
// SessionClient runs a fixed op list, so the timed phase is a sequence of
// rounds: each round starts four fresh sessions (new node ids) with the
// next slice of the seeded op stream and runs the event loop until idle.
#include <algorithm>
#include <memory>
#include <set>

#include "common.h"
#include "net/network.h"
#include "net/session_client.h"
#include "net/session_server.h"

namespace perfbench {
namespace {

using viewmat::Status;
using viewmat::net::ClientOp;
using viewmat::net::ClientOpResult;
using viewmat::net::Endpoint;
using viewmat::net::Message;
using viewmat::net::MsgType;
using viewmat::net::Network;
using viewmat::net::NetworkInterface;
using viewmat::net::NodeId;
using viewmat::net::RefreshDaemon;
using viewmat::net::SessionClient;
using viewmat::net::SessionServer;
using viewmat::obs::ScopedSpan;
using viewmat::obs::Tracer;

constexpr NodeId kServerNode = 0;
constexpr NodeId kRefresherNode = 1;
constexpr NodeId kFirstClientNode = 2;
constexpr int kClients = 4;
constexpr double kUpdateFraction = 0.7;
constexpr size_t kPoolPages = 4096;  // deferred Model 1 loads 2,952 pages
/// Client timeout and backoff cap, in the wire's virtual milliseconds. They
/// must exceed the model-ms service time of a queued request, or clients
/// retry and the server sheds load that is merely waiting its turn.
constexpr double kClientTimeoutMs = 1e7;
/// Four fresh sessions per round; the server's session table (which rides
/// every session checkpoint in one WAL page) holds kMaxSessions of them.
constexpr size_t kMaxSessions = 64;
constexpr int kMaxRounds = kMaxSessions / kClients;
constexpr double kRoundsPerPhase = 5.0;
constexpr int kSetupRepeats = 25;
/// Acknowledged queries re-checked against the journal prefix they saw.
constexpr size_t kCheckQueries = 200;

constexpr const char* kSendSpan = "bench.net.send";
constexpr const char* kServerSendSpan = "bench.net.send.server";
constexpr const char* kServerSpan = "bench.server.on_message";
constexpr const char* kClientSpan = "bench.client.on_message";
constexpr const char* kEventSpan = "bench.event";

/// Latency samples of one round.
struct Round {
  uint64_t ops = 0;
  double wall_s = 0.0;
  double model_ms = 0.0;  ///< engine model time the round consumed
  double peak_rss_mb = 0.0;  ///< process high-water mark when the round ended
  std::vector<double> update_us;
  std::vector<double> query_us;
};

/// The transport decorator every endpoint sends through: stamps each
/// client request's send time (a closed-loop client has one outstanding
/// request, and the clean wire never retries) and, when tracing, spans the
/// Send call.
class TimedNet : public NetworkInterface {
 public:
  explicit TimedNet(Network* net) : net_(net) {}

  using NetworkInterface::Send;
  Status Send(NodeId src, NodeId dst, const Message& msg,
              double extra_delay_ms) override {
    if (msg.type == MsgType::kCommit || msg.type == MsgType::kQuery) {
      pending_[src] = {Clock::now(), msg.type == MsgType::kCommit};
    }
    const ScopedSpan span(tracer_,
                          src == kServerNode ? kServerSendSpan : kSendSpan);
    return net_->Send(src, dst, msg, extra_delay_ms);
  }

  /// Records the send→reply latency of `client`'s outstanding request.
  void Acked(NodeId client, Round* round) {
    const auto it = pending_.find(client);
    if (it == pending_.end()) return;
    const double us = MicrosBetween(it->second.first, Clock::now());
    (it->second.second ? round->update_us : round->query_us).push_back(us);
    pending_.erase(it);
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 private:
  Network* net_;
  Tracer* tracer_ = nullptr;
  std::map<NodeId, std::pair<Clock::time_point, bool>> pending_;
};

/// Proxy endpoints: the only way to time OnMessage from outside.
class ServerProbe : public Endpoint {
 public:
  ServerProbe(SessionServer* server, Tracer** tracer)
      : server_(server), tracer_(tracer) {}
  void OnMessage(NodeId from, const Message& msg) override {
    const ScopedSpan span(*tracer_, kServerSpan);
    server_->OnMessage(from, msg);
  }

 private:
  SessionServer* server_;
  Tracer** tracer_;
};

class ClientProbe : public Endpoint {
 public:
  ClientProbe(NodeId node, SessionClient* client, TimedNet* net, Round** round,
              Tracer** tracer)
      : node_(node),
        client_(client),
        net_(net),
        round_(round),
        tracer_(tracer) {}
  void OnMessage(NodeId from, const Message& msg) override {
    if (msg.type == MsgType::kReply) net_->Acked(node_, *round_);
    const ScopedSpan span(*tracer_, kClientSpan);
    client_->OnMessage(from, msg);
  }

 private:
  NodeId node_;
  SessionClient* client_;
  TimedNet* net_;
  Round** round_;
  Tracer** tracer_;
};

struct AckedQuery {
  uint64_t journal_len;
  int64_t lo, hi;
  uint64_t digest;
};

/// The assembled system plus everything the checks need afterwards.
struct Wire {
  std::unique_ptr<viewmat::sim::StrategyDriver> driver;
  viewmat::sim::ShadowOracle shadow0;
  std::unique_ptr<Network> network;
  std::unique_ptr<TimedNet> timed;
  std::unique_ptr<RefreshDaemon> refresher;
  std::unique_ptr<SessionServer> server;
  std::unique_ptr<ServerProbe> server_probe;
  std::vector<std::unique_ptr<SessionClient>> clients;
  std::vector<std::unique_ptr<ClientProbe>> client_probes;
  std::vector<size_t> planned;  ///< ops given to each client
  Tracer* tracer = nullptr;     ///< null in untraced rounds
  Round* round = nullptr;       ///< the round collecting latencies
  int next_round = 0;
};

/// One round: four fresh sessions, `ops_per_client` ops each, run to idle.
/// A traced round steps the loop one event at a time under a span, so each
/// event's self time can be attributed afterwards.
Round RunRound(const Config& config, size_t ops_per_client, Wire* w) {
  Round round;
  w->round = &round;
  const viewmat::costmodel::Params params = PaperParams(config.tiny);
  const int r = w->next_round++;
  std::vector<SessionClient*> started;
  for (int c = 0; c < kClients; ++c) {
    const NodeId node =
        kFirstClientNode + static_cast<NodeId>(r * kClients + c);
    OpStream stream(params, config.seed * 7919ULL + node, kUpdateFraction);
    std::vector<ClientOp> ops;
    for (size_t i = 0; i < ops_per_client; ++i) {
      const PaperOp p = stream.Next();
      ClientOp op;
      op.is_update = p.is_update;
      op.victims = p.victims;
      op.lo = p.lo;
      op.hi = p.hi;
      ops.push_back(std::move(op));
    }
    SessionClient::Options copt;
    copt.node = node;
    copt.server = kServerNode;
    copt.events = w->network.get();
    copt.net = w->timed.get();
    copt.seed = config.seed ^ (0x9e3779b97f4a7c15ULL * (node + 1));
    copt.timeout_ms = kClientTimeoutMs;
    copt.max_backoff_ms = kClientTimeoutMs;
    auto client = std::make_unique<SessionClient>(copt, std::move(ops));
    auto probe = std::make_unique<ClientProbe>(
        node, client.get(), w->timed.get(), &w->round, &w->tracer);
    w->network->Register(node, probe.get());
    started.push_back(client.get());
    w->planned.push_back(ops_per_client);
    w->clients.push_back(std::move(client));
    w->client_probes.push_back(std::move(probe));
  }

  const double model_ms0 = w->driver->tracker()->TotalMs();
  const Clock::time_point t0 = Clock::now();
  for (SessionClient* client : started) client->Start();
  if (w->tracer == nullptr) {
    w->network->RunUntilIdle(SIZE_MAX);
  } else {
    for (bool idle = false; !idle;) {
      const ScopedSpan span(w->tracer, kEventSpan);
      idle = w->network->RunUntilIdle(w->network->events_run() + 1);
    }
  }
  round.wall_s = SecondsSince(t0);
  round.model_ms = w->driver->tracker()->TotalMs() - model_ms0;
  round.ops = round.update_us.size() + round.query_us.size();
  round.peak_rss_mb = PeakRssMb();
  w->round = nullptr;
  return round;
}

/// Rounds until their wall time reaches `seconds`. The first round of a
/// phase has `base_ops` ops per client; later rounds are sized to take about
/// a fifth of the phase each, so every phase yields a handful of samples at
/// any speed without outgrowing the server's session table.
std::vector<Round> RunRounds(const Config& config, double seconds,
                             size_t base_ops, Wire* w, Report* report) {
  std::vector<Round> rounds;
  double timed = 0.0;
  size_t ops_per_client = base_ops;
  while (rounds.empty() ||
         (timed < seconds && w->next_round < kMaxRounds)) {
    rounds.push_back(RunRound(config, ops_per_client, w));
    report->attempted += ops_per_client * kClients;
    const Round& r = rounds.back();
    timed += r.wall_s;
    const double per_client_op_s =
        r.wall_s / std::max<double>(1.0, r.ops) * kClients;
    ops_per_client = static_cast<size_t>(
        std::clamp(seconds / kRoundsPerPhase / per_client_op_s,
                   static_cast<double>(base_ops),
                   static_cast<double>(base_ops) * 50.0));
  }
  return rounds;
}

/// Acknowledged ops per wall second over all rounds. The host slows down in
/// episodes of seconds to minutes; a whole-phase average moves smoothly with
/// the share of the phase an episode covers, where a median over windows
/// jumps between the fast and the slow level.
double Rate(const std::vector<Round>& rounds) {
  double ops = 0.0, wall_s = 0.0;
  for (const Round& r : rounds) {
    ops += r.ops;
    wall_s += r.wall_s;
  }
  return ops / wall_s;
}

/// Post-run checks: every op acknowledged exactly once, acknowledged
/// commits equal the server's journal, the final base equals the initial
/// shadow plus the journal's deltas, sampled query answers match the
/// journal prefix they were served at, and the clean wire never retried or
/// shed a request.
void Check(Wire* w, Report* report) {
  uint64_t retries = 0, rejected = 0, unacked = 0;
  std::set<std::pair<uint64_t, uint64_t>> acked_commits;
  std::vector<AckedQuery> queries;
  for (size_t c = 0; c < w->clients.size(); ++c) {
    const SessionClient& client = *w->clients[c];
    retries += client.retries();
    rejected += client.rejected_replies();
    unacked += w->planned[c] - client.acked().size();
    const uint64_t session = kFirstClientNode + c;
    for (const ClientOpResult& r : client.acked()) {
      if (r.is_update) {
        acked_commits.emplace(session, r.seq_no);
      } else {
        queries.push_back({r.journal_len, r.lo, r.hi, r.answer_digest});
      }
    }
  }
  if (unacked != 0) report->Fail(std::to_string(unacked) + " ops never acknowledged", unacked);
  if (rejected != 0) report->Fail(std::to_string(rejected) + " kRejected replies", rejected);
  if (retries != 0 || w->server->shed_requests() != 0) {
    report->Fail("clean wire saw " + std::to_string(retries) + " retries and " +
                     std::to_string(w->server->shed_requests()) +
                     " shed requests: run invalid",
                 0);
  }

  const auto& journal = w->server->journal();
  std::set<std::pair<uint64_t, uint64_t>> journaled;
  for (const auto& entry : journal) journaled.emplace(entry.session, entry.seq);
  if (journaled.size() != journal.size() || journaled != acked_commits) {
    report->Fail("acknowledged commits differ from the server journal");
  }

  viewmat::sim::ShadowOracle ledger = w->shadow0;
  for (const auto& entry : journal) {
    for (const auto& [key, delta] : entry.victims) ledger.v[key] += delta;
  }
  viewmat::sim::ViewMultiset want, got;
  for (int64_t key = 0; key < ledger.n; ++key) want[ledger.BaseTuple(key)] += 1;
  if (Status st = w->driver->VisibleBase(&got); !st.ok()) {
    report->Fail("VisibleBase: " + st.ToString());
  } else if (got != want) {
    report->Fail("final base differs from the initial state plus the journal");
  }

  std::sort(queries.begin(), queries.end(),
            [](const AckedQuery& a, const AckedQuery& b) {
              return a.journal_len < b.journal_len;
            });
  const size_t stride = std::max<size_t>(1, queries.size() / kCheckQueries);
  viewmat::sim::ShadowOracle prefix = w->shadow0;
  size_t applied = 0;
  for (size_t i = 0; i < queries.size(); i += stride) {
    const AckedQuery& q = queries[i];
    if (q.journal_len > journal.size()) {
      report->Fail("query saw a journal longer than the server's");
      continue;
    }
    for (; applied < q.journal_len; ++applied) {
      for (const auto& [key, delta] : journal[applied].victims) {
        prefix.v[key] += delta;
      }
    }
    const uint64_t expected = viewmat::net::DigestMultiset(
        viewmat::sim::ExpectedRange(prefix, 1, q.lo, q.hi));
    if (expected != q.digest) {
      report->Fail("query [" + std::to_string(q.lo) + ", " +
                   std::to_string(q.hi) + "] answer differs from its journal prefix");
    }
  }
}

/// Per-layer self times of a traced phase (see RunRound for the spans).
struct LayerTimes {
  double loop_self_us = 0.0;     ///< event dispatch, decode, timers
  double session_self_us = 0.0;  ///< SessionServer work outside view spans
  double client_self_us = 0.0;
  double send_us = 0.0;
  uint64_t sends = 0;
};

LayerTimes Attribute(const SpanForest& forest) {
  LayerTimes t;
  for (size_t i = 0; i < forest.size(); ++i) {
    const std::string& name = forest.span(i).name;
    if (name == kSendSpan || name == kServerSendSpan) {
      t.send_us += forest.DurationUs(i);
      ++t.sends;
    } else if (name == kServerSpan) {
      t.session_self_us += forest.SelfUs(i);
    } else if (name == kClientSpan) {
      t.client_self_us += forest.SelfUs(i);
    } else if (name == kEventSpan) {
      // An event that delivers to no probed endpoint yet sends from the
      // server or runs view work is a server completion (reply + next
      // request) or refresh tick: its self time is session work.
      bool delivery = false, server_work = false;
      for (const size_t c : forest.children(i)) {
        const std::string& child = forest.span(c).name;
        delivery |= child == kServerSpan || child == kClientSpan;
        server_work |= child == kServerSendSpan || IsViewSpan(child);
      }
      (server_work && !delivery ? t.session_self_us : t.loop_self_us) +=
          forest.SelfUs(i);
    }
  }
  return t;
}

}  // namespace

void RunWireDeferred(const Config& config, Report* report) {
  const size_t ops_per_client = config.tiny ? 25 : 500;
  Wire w;
  viewmat::sim::StrategyDriver::Options dopt;
  dopt.kind = viewmat::sim::StrategyKind::kDeferred;
  dopt.model = 1;
  dopt.params = PaperParams(config.tiny);
  dopt.seed = config.seed;
  dopt.pool_pages = kPoolPages;
  // Set-up is one fast load; repeat it and keep the median so the figure
  // is steady. The last engine built is the one measured.
  std::vector<double> setup_s;
  viewmat::StatusOr<std::unique_ptr<viewmat::sim::StrategyDriver>> driver =
      Status::Internal("not built");
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    driver = viewmat::sim::StrategyDriver::Create(dopt);
    setup_s.push_back(SecondsSince(t0));
  }
  if (!driver.ok()) {
    report->Fail("StrategyDriver::Create: " + driver.status().ToString());
    return;
  }
  w.driver = std::move(driver).value();
  w.shadow0 = viewmat::sim::MakeShadow(*w.driver->scenario());
  Network::Options nopt;
  nopt.seed = config.seed;
  w.network = std::make_unique<Network>(nopt);
  w.timed = std::make_unique<TimedNet>(w.network.get());
  w.refresher = std::make_unique<RefreshDaemon>(kRefresherNode, w.timed.get());
  w.network->Register(kRefresherNode, w.refresher.get());
  SessionServer::Options sopt;
  sopt.driver = w.driver.get();
  sopt.events = w.network.get();
  sopt.net = w.timed.get();
  sopt.node = kServerNode;
  sopt.refresher = kRefresherNode;
  sopt.max_sessions = kMaxSessions;
  auto server = SessionServer::Create(sopt);
  if (!server.ok()) {
    report->Fail("SessionServer::Create: " + server.status().ToString());
    return;
  }
  w.server = std::move(server).value();
  w.server_probe = std::make_unique<ServerProbe>(w.server.get(), &w.tracer);
  w.network->Register(kServerNode, w.server_probe.get());

  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const std::vector<Round> timed =
      RunRounds(config, untraced_s, ops_per_client, &w, report);
  const double untraced_rate = Rate(timed);

  std::vector<double> update_us, query_us;
  for (const Round& r : timed) {
    update_us.insert(update_us.end(), r.update_us.begin(), r.update_us.end());
    query_us.insert(query_us.end(), r.query_us.begin(), r.query_us.end());
  }
  // Percentiles over the whole phase, for the same reason as Rate.
  AddLatencyMetrics(update_us, query_us, config.trace, 0, report);
  if (!config.trace) {
    report->Add("ops_per_s", untraced_rate, "1/s");
    // Round 0 is fixed by the seed, so its model cost repeats exactly. The
    // memory high-water mark is read when it ends too: every acknowledged
    // op stays in the journal and the clients' results, so a mark taken
    // later would grow with the number of ops the host's speed allowed.
    report->Add("model_ms_per_op", timed[0].model_ms / timed[0].ops,
                "model_ms");
    report->Add("setup_s", Median(setup_s), "s");
    report->Add("peak_rss_mb", timed[0].peak_rss_mb, "MiB");
  } else {
    Tracer tracer;
    SteadyMsClock clock;
    w.driver->tracker()->set_tracer(&tracer);
    tracer.SetClock(&clock);  // set_tracer pointed it at the model clock
    w.tracer = &tracer;
    w.timed->set_tracer(&tracer);
    const WorkCounts before = WorkCounts::Of(w.driver.get());
    const uint64_t sent_before = w.network->sent();
    const uint64_t checkpoints_before = w.server->session_checkpoints();
    const std::vector<Round> traced =
        RunRounds(config, config.seconds / 2, ops_per_client, &w, report);
    w.tracer = nullptr;
    w.timed->set_tracer(nullptr);
    w.driver->tracker()->set_tracer(nullptr);
    double ops = 0.0, wall_s = 0.0;
    for (const Round& r : traced) {
      ops += r.ops;
      wall_s += r.wall_s;
    }
    const SpanForest forest(tracer.spans());
    const LayerTimes layers = Attribute(forest);
    const ViewLayerTimes view = forest.ViewTimes();
    uint64_t retries = 0;
    for (const auto& client : w.clients) retries += client->retries();
    report->Add("net.send_us", layers.sends ? layers.send_us / layers.sends : 0.0, "us");
    report->Add("net.loop_self_us_per_op", layers.loop_self_us / ops, "us");
    report->Add("net.msgs_per_op", (w.network->sent() - sent_before) / ops, "count");
    report->Add("net.retries", static_cast<double>(retries), "count");
    report->Add("net.shed", static_cast<double>(w.server->shed_requests()), "count");
    report->Add("client.self_us_per_op", layers.client_self_us / ops, "us");
    report->Add("session.self_us_per_op", layers.session_self_us / ops, "us");
    report->Add("session.checkpoints",
                static_cast<double>(w.server->session_checkpoints() -
                                    checkpoints_before),
                "count");
    report->Add("view.us_per_op", view.root_us / ops, "us");
    AddViewMetrics(view, report);
    AddWorkMetrics(WorkCounts::Of(w.driver.get()) - before, ops, report);
    report->Add("trace.wall_us_per_op", wall_s * 1e6 / ops, "us");
    report->Add("trace.overhead_frac", 1.0 - Rate(traced) / untraced_rate,
                "fraction");
    report->Add("setup.load_s", Median(setup_s), "s");
    WriteTrace(tracer, config.out_dir, "wire_deferred");
  }
  Check(&w, report);
}

}  // namespace perfbench
