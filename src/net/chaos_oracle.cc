#include "net/chaos_oracle.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "net/faulty_network.h"
#include "net/network.h"
#include "net/session_client.h"
#include "net/session_server.h"
#include "sim/oracle.h"

namespace viewmat::net {

namespace {

using sim::ShadowOracle;
using sim::StrategyDriver;
using sim::Victims;

constexpr NodeId kServerNode = 0;
constexpr NodeId kRefresherNode = 1;
constexpr NodeId kFirstClientNode = 2;

/// Engine quiesce attempts at end of run (crash scripts are one-shot, so
/// a few restart rounds always reach a healthy device).
constexpr int kMaxQuiesceAttempts = 8;

uint64_t RunSeed(uint64_t base, int run) {
  uint64_t s = base ^ (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(run) + 2));
  s ^= s >> 33;
  return s | 1;
}

uint64_t ClientSeed(uint64_t run_seed, int client) {
  uint64_t s = run_seed ^
               (0xc2b2ae3d27d4eb4full * (static_cast<uint64_t>(client) + 2));
  s ^= s >> 29;
  return s | 1;
}

/// Arms the fault decorator for one profile. All windows and rates derive
/// from `prng`, so the whole failure schedule is a function of the run
/// seed.
void ArmProfile(ChaosProfile profile, int clients, Random* prng,
                FaultyNetwork* faulty) {
  switch (profile) {
    case ChaosProfile::kClean:
      break;
    case ChaosProfile::kDrop:
      faulty->set_drop_rate(0.12);
      faulty->set_max_faults(48);
      break;
    case ChaosProfile::kDuplicate:
      faulty->set_duplicate_rate(0.2);
      faulty->set_max_faults(64);
      break;
    case ChaosProfile::kReorder:
      faulty->set_reorder_rate(0.35);
      faulty->set_delay_ms(10.0);
      faulty->set_max_faults(96);
      break;
    case ChaosProfile::kDelay:
      faulty->set_delay_rate(0.35);
      faulty->set_delay_ms(30.0);
      faulty->set_max_faults(96);
      break;
    case ChaosProfile::kPartition:
    case ChaosProfile::kCrashPartition: {
      // Isolate the refresh path (degraded reads) ...
      const double t0 = 30.0 + prng->NextDouble() * 40.0;
      faulty->AddPartition(t0, t0 + 60.0 + prng->NextDouble() * 40.0,
                           kServerNode, kRefresherNode);
      // ... cut one client off entirely for a window ...
      const NodeId victim =
          kFirstClientNode + static_cast<NodeId>(prng->Uniform(clients));
      const double t1 = 20.0 + prng->NextDouble() * 50.0;
      faulty->AddPartition(t1, t1 + 40.0 + prng->NextDouble() * 40.0,
                           kServerNode, victim);
      // ... and fail one reply direction only: requests arrive, acks are
      // lost — the pure dedup workout.
      const NodeId one_way =
          kFirstClientNode + static_cast<NodeId>(prng->Uniform(clients));
      const double t2 = 50.0 + prng->NextDouble() * 60.0;
      faulty->AddPartition(t2, t2 + 30.0 + prng->NextDouble() * 30.0,
                           kServerNode, one_way, /*one_way=*/true);
      break;
    }
  }
}

Status RunOneChaos(const ChaosOracleOptions& options,
                   const costmodel::Params& params, int run,
                   ChaosOracleResult* agg) {
  const uint64_t run_seed = RunSeed(options.seed, run);

  StrategyDriver::Options dopt;
  dopt.kind = options.kind;
  dopt.model = options.model;
  dopt.params = params;
  dopt.seed = run_seed;
  dopt.checkpoint_every = 0;  // the session server drives checkpoints
  VIEWMAT_ASSIGN_OR_RETURN(std::unique_ptr<StrategyDriver> driver,
                           StrategyDriver::Create(dopt));
  const ShadowOracle shadow0 = sim::MakeShadow(*driver->scenario());

  Network::Options nopt;
  nopt.seed = run_seed;
  Network network(nopt);
  FaultyNetwork faulty(&network, network.clock(), run_seed ^ 0x5bd1e995u);
  Random prng(run_seed ^ 0x2545f4914f6cdd1dull);
  ArmProfile(options.profile, options.clients, &prng, &faulty);

  RefreshDaemon refresher(kRefresherNode, &faulty);
  network.Register(kRefresherNode, &refresher);

  SessionServer::Options sopt;
  sopt.driver = driver.get();
  sopt.events = &network;
  sopt.net = &faulty;
  sopt.node = kServerNode;
  sopt.refresher = kRefresherNode;
  sopt.max_inflight = 8;
  sopt.max_sessions = 64;
  sopt.checkpoint_every = 6;
  sopt.restart_delay_ms = 25.0;
  sopt.refresh_every_ms = 40.0;
  VIEWMAT_ASSIGN_OR_RETURN(std::unique_ptr<SessionServer> server,
                           SessionServer::Create(sopt));
  network.Register(kServerNode, server.get());

  // Scripted server crashes ride the virtual clock: at a seeded time the
  // disk arms a relative crash script, so the crash lands wherever the
  // protocol happens to be — including inside a partition window.
  if (options.profile == ChaosProfile::kCrashPartition) {
    for (int c = 0; c < 2; ++c) {
      const double at = 20.0 + prng.NextDouble() * 80.0 + c * 90.0;
      const uint64_t ops_ahead = 1 + prng.Uniform(8);
      storage::FaultyDisk* disk = driver->disk();
      network.Post(at, [disk, ops_ahead]() {
        disk->ScriptCrashAtOp(ops_ahead);
      });
    }
  }

  // Clients: seeded op lists of delta-commits and range queries. Deltas
  // are integer-valued doubles, so per-key sums are exact and a duplicate
  // application can never hide behind rounding.
  const int64_t n = shadow0.n;
  std::vector<std::unique_ptr<SessionClient>> clients;
  for (int c = 0; c < options.clients; ++c) {
    const uint64_t cseed = ClientSeed(run_seed, c);
    Random crng(cseed);
    std::vector<ClientOp> ops;
    for (int i = 0; i < options.ops_per_client; ++i) {
      ClientOp op;
      op.is_update = crng.NextDouble() < options.update_fraction;
      if (op.is_update) {
        const int nv = 1 + static_cast<int>(crng.Uniform(3));
        for (int v = 0; v < nv; ++v) {
          const int64_t key = static_cast<int64_t>(crng.Uniform(n));
          const double delta = static_cast<double>(1 + crng.Uniform(9));
          op.victims.emplace_back(key, delta);
        }
      } else {
        op.lo = static_cast<int64_t>(crng.Uniform(n));
        op.hi = op.lo + static_cast<int64_t>(
                            crng.Uniform(std::max<int64_t>(1, n / 2)));
      }
      ops.push_back(std::move(op));
    }
    SessionClient::Options copt;
    copt.node = kFirstClientNode + static_cast<NodeId>(c);
    copt.server = kServerNode;
    copt.events = &network;
    copt.net = &faulty;
    copt.seed = cseed;
    copt.timeout_ms = 80.0;
    copt.max_backoff_ms = 640.0;
    auto client = std::make_unique<SessionClient>(copt, std::move(ops));
    network.Register(copt.node, client.get());
    clients.push_back(std::move(client));
  }
  for (auto& client : clients) client->Start();

  // ---- Run to the wire's quiescence -------------------------------------
  const bool drained = network.RunUntilIdle(options.max_events);
  bool all_done = true;
  for (const auto& client : clients) all_done &= client->done();

  agg->runs += 1;
  agg->client_retries += [&] {
    uint64_t total = 0;
    for (const auto& client : clients) total += client->retries();
    return total;
  }();
  agg->redelivered_hits += server->redelivered_hits();
  agg->rejected_commits += server->rejected_commits();
  agg->ambiguous_resolved += server->ambiguous_resolved();
  agg->shed_requests += server->shed_requests();
  agg->server_crashes += server->crashes();
  agg->server_recoveries += server->recoveries();
  agg->journal_reconciled += server->journal_reconciled();
  agg->session_checkpoints += server->session_checkpoints();
  agg->messages_sent += network.sent();
  agg->faults_injected += faulty.faults_injected();

  if (!drained || !all_done) {
    ++agg->liveness_failures;
    return Status::OK();  // nothing left to audit on a stuck run
  }

  // ---- Quiesce the engine (heal everything, converge) --------------------
  driver->disk()->ClearFaults();
  faulty.ClearFaults();
  Status converged = Status::Internal("not attempted");
  for (int attempt = 0; attempt < kMaxQuiesceAttempts && !converged.ok();
       ++attempt) {
    if (driver->disk()->crashed()) {
      driver->disk()->Restart();
      converged = driver->DiscardVolatileWal();
      if (converged.ok()) converged = driver->recovery()->DiscardVolatileWal();
      if (!converged.ok()) continue;
    }
    converged = driver->Converge();
  }
  if (!converged.ok()) {
    ++agg->corrupt_runs;
    return Status::OK();
  }

  // ---- Invariant 2: the exactly-once ledger ------------------------------
  std::multiset<std::pair<uint64_t, uint64_t>> journal_ids;
  for (const auto& entry : server->journal()) {
    journal_ids.emplace(entry.session, entry.seq);
  }
  std::set<std::pair<uint64_t, uint64_t>> journal_unique(journal_ids.begin(),
                                                         journal_ids.end());
  if (journal_unique.size() != journal_ids.size()) {
    ++agg->duplicate_applications;
  }
  std::set<std::pair<uint64_t, uint64_t>> acked_ids;
  for (size_t c = 0; c < clients.size(); ++c) {
    const uint64_t session = kFirstClientNode + c;
    for (const ClientOpResult& r : clients[c]->acked()) {
      if (r.is_update) {
        ++agg->acked_commits;
        acked_ids.emplace(session, r.seq_no);
      } else {
        ++agg->acked_queries;
        if (r.degraded) ++agg->degraded_query_acks;
      }
    }
  }
  if (acked_ids != journal_unique) ++agg->lost_commits;

  // ---- Invariant 3a: final state equals the delta ledger -----------------
  // Advancing the ledger turns each journal delta into the absolute
  // payload it produced — the same float additions in the same order as
  // the server's staging, so the replay below sees identical doubles.
  ShadowOracle ledger = shadow0;
  std::vector<Victims> absolute;
  for (const auto& entry : server->journal()) {
    Victims& txn = absolute.emplace_back();
    for (const auto& [key, delta] : entry.victims) {
      ledger.v[key] += delta;
      txn.emplace_back(key, ledger.v[key]);
    }
  }
  sim::ViewMultiset got_base;
  VIEWMAT_RETURN_IF_ERROR(driver->VisibleBase(&got_base));
  if (got_base != sim::ExpectedBase(ledger)) ++agg->state_mismatches;

  // ---- Invariant 3b: serial replay of the journal ------------------------
  VIEWMAT_ASSIGN_OR_RETURN(const uint64_t final_digest,
                           sim::StateDigest(driver.get()));
  const StatusOr<uint64_t> replay_digest = sim::ReplayDigest(dopt, absolute);
  if (!replay_digest.ok() || *replay_digest != final_digest) {
    ++agg->replay_mismatches;
  }

  // ---- Invariant 4: acked queries match their journal prefix -------------
  struct AckedQuery {
    uint64_t journal_len;
    int64_t lo, hi;
    uint64_t digest;
  };
  std::vector<AckedQuery> queries;
  for (const auto& client : clients) {
    for (const ClientOpResult& r : client->acked()) {
      if (!r.is_update) {
        queries.push_back({r.journal_len, r.lo, r.hi, r.answer_digest});
      }
    }
  }
  std::sort(queries.begin(), queries.end(),
            [](const AckedQuery& a, const AckedQuery& b) {
              return a.journal_len < b.journal_len;
            });
  ShadowOracle prefix = shadow0;
  size_t applied = 0;
  for (const AckedQuery& q : queries) {
    if (q.journal_len > server->journal().size()) {
      ++agg->query_mismatches;
      continue;
    }
    for (; applied < q.journal_len; ++applied) {
      for (const auto& [key, v] : absolute[applied]) prefix.v[key] = v;
    }
    const uint64_t want =
        DigestMultiset(sim::ExpectedRange(prefix, options.model, q.lo, q.hi));
    if (want != q.digest) ++agg->query_mismatches;
  }
  return Status::OK();
}

}  // namespace

const char* ChaosProfileName(ChaosProfile profile) {
  switch (profile) {
    case ChaosProfile::kClean: return "clean";
    case ChaosProfile::kDrop: return "drop";
    case ChaosProfile::kDuplicate: return "duplicate";
    case ChaosProfile::kReorder: return "reorder";
    case ChaosProfile::kDelay: return "delay";
    case ChaosProfile::kPartition: return "partition";
    case ChaosProfile::kCrashPartition: return "crash_partition";
  }
  return "?";
}

std::string ChaosOracleResult::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%llu runs: %llu acked commits, %llu acked queries (%llu degraded), "
      "%llu retries, %llu redeliveries, %llu crashes/%llu recoveries, "
      "%llu reconciled | lost=%llu dup=%llu state=%llu replay=%llu "
      "query=%llu live_fail=%llu corrupt=%llu",
      static_cast<unsigned long long>(runs),
      static_cast<unsigned long long>(acked_commits),
      static_cast<unsigned long long>(acked_queries),
      static_cast<unsigned long long>(degraded_query_acks),
      static_cast<unsigned long long>(client_retries),
      static_cast<unsigned long long>(redelivered_hits),
      static_cast<unsigned long long>(server_crashes),
      static_cast<unsigned long long>(server_recoveries),
      static_cast<unsigned long long>(journal_reconciled),
      static_cast<unsigned long long>(lost_commits),
      static_cast<unsigned long long>(duplicate_applications),
      static_cast<unsigned long long>(state_mismatches),
      static_cast<unsigned long long>(replay_mismatches),
      static_cast<unsigned long long>(query_mismatches),
      static_cast<unsigned long long>(liveness_failures),
      static_cast<unsigned long long>(corrupt_runs));
  return buf;
}

StatusOr<ChaosOracleResult> RunChaosOracle(const ChaosOracleOptions& options) {
  if (options.runs <= 0) {
    return Status::InvalidArgument("ChaosOracleOptions::runs must be > 0");
  }
  if (options.clients <= 0) {
    return Status::InvalidArgument("ChaosOracleOptions::clients must be > 0");
  }
  if (options.ops_per_client <= 0) {
    return Status::InvalidArgument(
        "ChaosOracleOptions::ops_per_client must be > 0");
  }
  const costmodel::Params params = options.shrink_params
                                       ? sim::TortureParams(options.params)
                                       : options.params;
  VIEWMAT_RETURN_IF_ERROR(params.Validate());

  // Each run is a self-contained single-threaded simulation; the fan-out
  // merges per-run tallies in run order, so any job count produces the
  // same result.
  struct RunOutcome {
    ChaosOracleResult agg;
    Status status = Status::OK();
  };
  std::vector<RunOutcome> outcomes = common::ParallelMap(
      options.jobs, static_cast<size_t>(options.runs), [&](size_t run) {
        RunOutcome out;
        out.status =
            RunOneChaos(options, params, static_cast<int>(run), &out.agg);
        return out;
      });

  ChaosOracleResult result;
  for (const RunOutcome& out : outcomes) {
    VIEWMAT_RETURN_IF_ERROR(out.status);
    const ChaosOracleResult& a = out.agg;
    result.runs += a.runs;
    result.acked_commits += a.acked_commits;
    result.acked_queries += a.acked_queries;
    result.degraded_query_acks += a.degraded_query_acks;
    result.client_retries += a.client_retries;
    result.redelivered_hits += a.redelivered_hits;
    result.rejected_commits += a.rejected_commits;
    result.ambiguous_resolved += a.ambiguous_resolved;
    result.shed_requests += a.shed_requests;
    result.server_crashes += a.server_crashes;
    result.server_recoveries += a.server_recoveries;
    result.journal_reconciled += a.journal_reconciled;
    result.session_checkpoints += a.session_checkpoints;
    result.messages_sent += a.messages_sent;
    result.faults_injected += a.faults_injected;
    result.liveness_failures += a.liveness_failures;
    result.lost_commits += a.lost_commits;
    result.duplicate_applications += a.duplicate_applications;
    result.state_mismatches += a.state_mismatches;
    result.replay_mismatches += a.replay_mismatches;
    result.query_mismatches += a.query_mismatches;
    result.corrupt_runs += a.corrupt_runs;
  }
  return result;
}

}  // namespace viewmat::net
