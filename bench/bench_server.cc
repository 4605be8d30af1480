// Concurrent view-server sweep: drives every model × strategy combination
// through multi-client schedules at a grid of client counts and update
// fractions, executed by the worker pool under two-phase t-lock interval
// locking. Reports per-cell throughput, conflict, and wait numbers, and
// runs the serializability oracle on every cell: the concurrent final
// state must equal the serial order of its committed transactions, with
// identical per-op outcomes at one worker and at --jobs workers. All of
// that is worker-count-independent by construction (seeded scheduler,
// sequence-ordered commit pipeline), so the report differs between --jobs
// settings only in the execution block — which is exactly what the
// determinism ctest entry checks. Physical lock stats (wall waits,
// blocked acquires) DO vary with the worker count and therefore live in
// the execution block, not the gated metrics.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "server/oracle.h"
#include "server/view_server.h"
#include "sim/bench_report.h"

using namespace viewmat;

namespace {

/// Nearest-rank percentile over an unsorted sample (sorts a copy).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = std::min(
      v.size() - 1, static_cast<size_t>(p / 100.0 * (v.size() - 1) + 0.5));
  return v[rank];
}

}  // namespace

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_server", cli.quick);
  const size_t workers = cli.effective_jobs();

  const std::vector<uint32_t> client_counts =
      cli.quick ? std::vector<uint32_t>{3} : std::vector<uint32_t>{2, 4, 8};
  const std::vector<double> update_fractions =
      cli.quick ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.75};

  int cells = 0;
  server::LockManager::Stats physical;
  std::vector<double> lock_waits;
  std::vector<double> commit_waits;
  for (const int model : {1, 2}) {
    for (const sim::StrategyKind kind : sim::kAllStrategyKinds) {
      if (!sim::SupportsModel(kind, model)) continue;
      const std::string combo = "model" + std::to_string(model) + "." +
                                sim::StrategyKindName(kind);
      for (const double update_fraction : update_fractions) {
        sim::SeriesTable table;
        char title[128];
        std::snprintf(title, sizeof(title), "server %s uf=%.2f",
                      combo.c_str(), update_fraction);
        table.title = title;
        table.x_label = "clients";
        table.series_names = {"committed",     "aborted",
                              "queries_exact", "logical_conflicts",
                              "logical_wait_ms", "model_ms",
                              "throughput_tps"};
        for (const uint32_t clients : client_counts) {
          server::ViewServer::Options options;
          options.driver.kind = kind;
          options.driver.model = model;
          options.driver.params = sim::TortureParams(costmodel::Params());
          options.driver.seed = 17;
          options.schedule.clients = clients;
          options.schedule.ops_per_client = cli.quick ? 4 : 8;
          options.schedule.update_fraction = update_fraction;
          options.schedule.abort_fraction = 0.1;
          options.schedule.seed = 1000 + clients;
          options.workers = workers;

          auto run = [&]() -> StatusOr<server::ViewServer::Result> {
            VIEWMAT_ASSIGN_OR_RETURN(auto srv,
                                     server::ViewServer::Create(options));
            return srv->Run();
          }();
          if (!run.ok()) {
            std::fprintf(stderr, "%s clients=%u failed: %s\n", combo.c_str(),
                         clients, run.status().ToString().c_str());
            return 1;
          }
          // The oracle re-executes the cell serially and at the sweep's
          // worker count; any stale read, outcome divergence, or
          // non-serializable final state fails the bench.
          const Status oracle = server::CheckSerializability(
              options, {1, workers}, nullptr);
          if (!oracle.ok()) {
            std::fprintf(stderr, "%s clients=%u NOT serializable: %s\n",
                         combo.c_str(), clients,
                         oracle.ToString().c_str());
            return 1;
          }
          const server::ViewServer::Result& r = *run;
          table.AddRow(clients,
                       {static_cast<double>(r.committed),
                        static_cast<double>(r.aborted),
                        static_cast<double>(r.queries_exact),
                        static_cast<double>(r.logical_conflicts),
                        r.logical_wait_ms, r.model_ms, r.throughput_tps});
          physical.acquires += r.lock_stats.acquires;
          physical.blocked_acquires += r.lock_stats.blocked_acquires;
          physical.releases += r.lock_stats.releases;
          physical.wall_wait_ms += r.lock_stats.wall_wait_ms;
          for (const server::ViewServer::OpResult& op : r.ops) {
            lock_waits.push_back(op.physical_lock_wait_ms);
            commit_waits.push_back(op.physical_commit_wait_ms);
          }
          ++cells;
        }
        report.AddTable(table);
      }
      std::printf("%-30s serializable at every cell\n", combo.c_str());
    }
  }

  // The gated note must not mention the worker count — it is the one
  // input allowed to differ between the jobs-1 and jobs-8 runs the
  // determinism check byte-compares.
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "%d cells across 9 model-strategy combos; every cell "
                "serializable at one worker and at the sweep worker count",
                cells);
  std::printf("\n%s (workers=%zu)\n", summary, workers);
  report.AddNote("invariant", summary);
  // Wall waits and blocked counts depend on thread timing and worker
  // count — execution block only, never gated.
  char lock_note[160];
  std::snprintf(lock_note, sizeof(lock_note),
                "acquires=%llu blocked=%llu releases=%llu wall_wait_ms=%.3f",
                static_cast<unsigned long long>(physical.acquires),
                static_cast<unsigned long long>(physical.blocked_acquires),
                static_cast<unsigned long long>(physical.releases),
                physical.wall_wait_ms);
  report.AddExecutionNote("lock_stats", lock_note);
  // Per-op physical wait distributions across every cell. These are wall
  // times measured on whatever machine ran the sweep — tail shape is the
  // interesting part (a fat p99 on lock waits means stripes are hot; a fat
  // p99 on commit waits means retirement is the bottleneck).
  char wait_note[160];
  std::snprintf(wait_note, sizeof(wait_note),
                "p50=%.4f p95=%.4f p99=%.4f ms over %zu ops",
                Percentile(lock_waits, 50), Percentile(lock_waits, 95),
                Percentile(lock_waits, 99), lock_waits.size());
  report.AddExecutionNote("physical_lock_wait", wait_note);
  std::snprintf(wait_note, sizeof(wait_note),
                "p50=%.4f p95=%.4f p99=%.4f ms over %zu ops",
                Percentile(commit_waits, 50), Percentile(commit_waits, 95),
                Percentile(commit_waits, 99), commit_waits.size());
  report.AddExecutionNote("physical_commit_wait", wait_note);
  return sim::FinishBenchMain(cli, &report);
}
