// server_disjoint: the multi-client ViewServer (deferred Model 1, group
// commit in batches of 4, 2 workers, 8 simulated clients on disjoint key
// partitions, 50% updates, 10% voluntary aborts) over a buffer pool that
// holds the whole working set. The only workload through the lock manager,
// admission, cost shards and retirement. ViewServer::Run executes a whole
// seeded schedule in one call, so the timed phase is a sequence of rounds,
// each a fresh server with its own schedule; every round is one sample.
#include <algorithm>
#include <memory>

#include "common.h"
#include "server/view_server.h"

namespace perfbench {
namespace {

using viewmat::obs::Tracer;
using viewmat::server::ViewServer;

constexpr uint32_t kClients = 8;
/// Two workers, not four: with four on a 4-vCPU VM, each EXCLUSIVE op's
/// hand-off wakes another vCPU, and runs swung between ~3,000 and ~5,600
/// ops/s with host load; two kept runs within a few percent.
constexpr size_t kWorkers = 2;
constexpr size_t kPoolPages = 4096;  // deferred Model 1 loads 2,952 pages

struct Round {
  double create_s = 0.0;
  double run_s = 0.0;   ///< the Run() call, epilogue included
  double pool_s = 0.0;  ///< the worker pool on the schedule (timed phase)
  uint64_t ops = 0;
  ViewServer::Result result;
  WorkCounts work;
  std::vector<double> update_us;  ///< server.txn span durations
  std::vector<double> query_us;   ///< server.query span durations
  std::vector<double> rates;      ///< per-window op rates of the pool phase
  ViewLayerTimes view;
  double view_union_us = 0.0;
};

ViewServer::Options MakeOptions(const Config& config, int round) {
  ViewServer::Options o;
  o.driver.kind = viewmat::sim::StrategyKind::kDeferred;
  o.driver.model = 1;
  o.driver.params = PaperParams(config.tiny);
  o.driver.seed = config.seed * 1000003ULL + static_cast<uint64_t>(round);
  o.driver.group_commit = true;
  o.driver.pool_pages = kPoolPages;
  o.schedule.clients = kClients;
  o.schedule.ops_per_client = config.tiny ? 40 : 1250;
  o.schedule.update_fraction = 0.5;
  o.schedule.abort_fraction = 0.1;
  o.schedule.seed = o.driver.seed;
  o.schedule.contention = viewmat::server::ContentionProfile::kDisjoint;
  o.workers = kWorkers;
  o.commit_batch = 4;
  return o;
}

/// Builds and runs one round. The server's own per-op spans (server.txn /
/// server.query, on the steady clock) give per-op execution time even in
/// untraced rounds; a traced round also records the view layer's spans.
bool RunRound(const Config& config, int round, bool traced, Round* out,
              Report* report) {
  Tracer tracer;
  SteadyMsClock clock;
  ViewServer::Options options = MakeOptions(config, round);
  options.tracer = &tracer;
  const Clock::time_point t0 = Clock::now();
  auto server = ViewServer::Create(options);
  out->create_s = SecondsSince(t0);
  if (!server.ok()) {
    report->Fail("ViewServer::Create: " + server.status().ToString());
    return false;
  }
  if (traced) (*server)->driver()->tracker()->set_tracer(&tracer);
  tracer.SetClock(&clock);  // Create and set_tracer pointed it at model time
  const WorkCounts before = WorkCounts::Of((*server)->driver());
  const Clock::time_point t1 = Clock::now();
  auto result = (*server)->Run();
  out->run_s = SecondsSince(t1);
  (*server)->driver()->tracker()->set_tracer(nullptr);
  out->work = WorkCounts::Of((*server)->driver()) - before;
  if (!result.ok()) {
    report->Fail("ViewServer::Run: " + result.status().ToString());
    return false;
  }
  out->result = std::move(result).value();
  const ViewServer::Result& r = out->result;
  out->ops = r.ops.size();
  out->pool_s = r.wall_ms / 1000.0;
  report->attempted += out->ops;
  const uint64_t bad =
      r.rejected + r.skipped + r.queries_failed + r.queries_stale;
  if (bad != 0) {
    report->Fail("round " + std::to_string(round) + ": " +
                     std::to_string(r.rejected) + " rejected, " +
                     std::to_string(r.skipped) + " skipped, " +
                     std::to_string(r.queries_failed) + " failed and " +
                     std::to_string(r.queries_stale) + " stale ops",
                 bad);
  }
  if (r.crashed) report->Fail("round " + std::to_string(round) + " crashed", 0);

  // Per-op spans in completion order; their end times give windowed rates.
  const SpanForest forest(tracer.spans());
  std::vector<std::pair<double, size_t>> ops_by_end;
  double first_ms = 0.0, last_ms = 0.0;
  for (size_t i = 0; i < forest.size(); ++i) {
    const std::string& name = forest.span(i).name;
    if (name != "server.txn" && name != "server.query") continue;
    const viewmat::obs::Span& s = forest.span(i);
    if (ops_by_end.empty() || s.begin_ms < first_ms) first_ms = s.begin_ms;
    last_ms = std::max(last_ms, s.end_ms);
    ops_by_end.emplace_back(s.end_ms, i);
  }
  std::sort(ops_by_end.begin(), ops_by_end.end());
  std::vector<double> ends;
  for (const auto& [end_ms, i] : ops_by_end) {
    (forest.span(i).name == "server.txn" ? out->update_us : out->query_us)
        .push_back(forest.DurationUs(i));
    ends.push_back((end_ms - first_ms) / 1000.0);
  }
  AppendWindowRates(ends, (last_ms - first_ms) / 1000.0, kRateWindowS,
                    &out->rates);
  if (traced) {
    out->view = forest.ViewTimes();
    out->view_union_us = forest.ViewUnionUs();
    WriteTrace(tracer, config.out_dir, "server_disjoint");
  }
  return true;
}

/// Rounds until their pool time reaches `seconds` (at least one round).
std::vector<Round> RunRounds(const Config& config, double seconds, bool traced,
                             int* next_round, Report* report) {
  std::vector<Round> rounds;
  double timed = 0.0;
  while (rounds.empty() || timed < seconds) {
    Round round;
    if (!RunRound(config, (*next_round)++, traced, &round, report)) break;
    timed += round.pool_s;
    rounds.push_back(std::move(round));
  }
  return rounds;
}

double MedianRate(const std::vector<Round>& rounds) {
  std::vector<double> rates;
  for (const Round& r : rounds) {
    rates.insert(rates.end(), r.rates.begin(), r.rates.end());
  }
  return Median(rates);
}

}  // namespace

void RunServerDisjoint(const Config& config, Report* report) {
  int next_round = 0;
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const std::vector<Round> timed =
      RunRounds(config, untraced_s, false, &next_round, report);
  if (timed.empty()) return;
  std::vector<double> setup, update_us, query_us;
  for (const Round& r : timed) {
    setup.push_back(r.create_s);
    update_us.insert(update_us.end(), r.update_us.begin(), r.update_us.end());
    query_us.insert(query_us.end(), r.query_us.begin(), r.query_us.end());
  }
  const double untraced_rate = MedianRate(timed);
  AddLatencyMetrics(update_us, query_us, config.trace, kLatencyChunk, report);

  if (!config.trace) {
    report->Add("ops_per_s", untraced_rate, "1/s");
    // Round 0's schedule is fixed by the seed, so this repeats exactly.
    report->Add("model_ms_per_op", timed[0].result.model_ms / timed[0].ops,
                "model_ms");
    report->Add("setup_s", Median(setup), "s");
    report->Add("peak_rss_mb", PeakRssMb(), "MiB");
    return;
  }

  // Load alone, to split ViewServer::Create into load and schedule build.
  const Clock::time_point t0 = Clock::now();
  const auto loaded =
      viewmat::sim::StrategyDriver::Create(MakeOptions(config, 0).driver);
  const double load_s = SecondsSince(t0);
  if (!loaded.ok()) {
    report->Fail("StrategyDriver::Create: " + loaded.status().ToString());
  }

  const std::vector<Round> traced =
      RunRounds(config, config.seconds / 2, true, &next_round, report);
  if (traced.empty()) return;
  double ops = 0.0, pool_s = 0.0, run_us = 0.0, view_union_us = 0.0;
  double blocked = 0.0, exclusive = 0.0, executed = 0.0, batches = 0.0;
  std::vector<double> lock_wait, commit_wait;
  ViewLayerTimes view;
  WorkCounts work;
  for (const Round& r : traced) {
    ops += r.ops;
    pool_s += r.pool_s;
    run_us += r.run_s * 1e6;
    view_union_us += r.view_union_us;
    exclusive += r.result.exclusive_ops;
    executed += r.result.exclusive_ops + r.result.parallel_ops;
    batches += r.result.commit_batches;
    for (const ViewServer::OpResult& op : r.result.ops) {
      blocked += op.physically_blocked ? 1 : 0;
      lock_wait.push_back(op.physical_lock_wait_ms * 1000.0);
      commit_wait.push_back(op.physical_commit_wait_ms * 1000.0);
    }
    view.txn_us.insert(view.txn_us.end(), r.view.txn_us.begin(),
                       r.view.txn_us.end());
    view.query_us.insert(view.query_us.end(), r.view.query_us.begin(),
                         r.view.query_us.end());
    view.refresh_us += r.view.refresh_us;
    view.root_us += r.view.root_us;
    work += r.work;
  }
  report->Add("server.self_us_per_op", (run_us - view_union_us) / ops, "us");
  report->Add("server.lock_wait_p50_us", Percentile(lock_wait, 0.50), "us");
  report->Add("server.lock_wait_p99_us", Percentile(lock_wait, 0.99), "us");
  report->Add("server.commit_wait_p50_us", Percentile(commit_wait, 0.50), "us");
  report->Add("server.commit_wait_p99_us", Percentile(commit_wait, 0.99), "us");
  report->Add("server.blocked_acquire_frac", blocked / ops, "fraction");
  report->Add("server.exclusive_op_frac", exclusive / executed, "fraction");
  report->Add("server.commit_batches", batches / traced.size(), "count");
  report->Add("view.us_per_op", view_union_us / ops, "us");
  AddViewMetrics(view, report);
  AddWorkMetrics(work, ops, report);
  report->Add("trace.wall_us_per_op", pool_s * 1e6 / ops, "us");
  report->Add("trace.overhead_frac", 1.0 - MedianRate(traced) / untraced_rate,
              "fraction");
  report->Add("setup.load_s", load_s, "s");
  report->Add("setup.schedule_s", Median(setup) - load_s, "s");
}

}  // namespace perfbench
