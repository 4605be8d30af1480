// View-server sweep: drives every model × strategy combination through
// multi-client schedules at a grid of client counts and update fractions,
// then deferred Model 1 under group commit in each contention profile.
// Reports per-cell throughput, conflict, and wait numbers, and runs the
// serializability oracle on every cell: the final state must equal the
// serial order of its committed transactions, with no stale query answer.
// Every number is a function of the seeded options, so two runs' reports
// differ only in the execution block — which is exactly what the
// determinism ctest entry checks.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "server/oracle.h"
#include "server/view_server.h"
#include "sim/bench_report.h"

using namespace viewmat;

namespace {

/// Runs one cell and its serializability check; prints the failure and
/// returns false if either fails.
bool RunCell(const server::ViewServer::Options& options, const char* what,
             server::ViewServer::Result* out) {
  auto run = [&]() -> StatusOr<server::ViewServer::Result> {
    VIEWMAT_ASSIGN_OR_RETURN(auto srv, server::ViewServer::Create(options));
    return srv->Run();
  }();
  if (!run.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 run.status().ToString().c_str());
    return false;
  }
  const Status oracle = server::CheckSerializability(options, nullptr);
  if (!oracle.ok()) {
    std::fprintf(stderr, "%s NOT serializable: %s\n", what,
                 oracle.ToString().c_str());
    return false;
  }
  *out = *std::move(run);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_server", cli.quick);

  const std::vector<uint32_t> client_counts =
      cli.quick ? std::vector<uint32_t>{3} : std::vector<uint32_t>{2, 4, 8};
  const std::vector<double> update_fractions =
      cli.quick ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.75};

  int cells = 0;
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

          server::ViewServer::Result r;
          if (!RunCell(options, title, &r)) return 1;
          table.AddRow(clients,
                       {static_cast<double>(r.committed),
                        static_cast<double>(r.aborted),
                        static_cast<double>(r.queries_exact),
                        static_cast<double>(r.logical_conflicts),
                        r.logical_wait_ms, r.model_ms, r.throughput_tps});
          ++cells;
        }
        report.AddTable(table);
      }
      std::printf("%-30s serializable at every cell\n", combo.c_str());
    }
  }

  // Deferred Model 1 under group commit (batches of 4) over a 256-frame
  // pool, in each contention profile: how key geometry turns into logical
  // conflicts, and how many batch syncs the commits share.
  for (const server::ContentionProfile profile :
       {server::ContentionProfile::kDisjoint,
        server::ContentionProfile::kHotRange,
        server::ContentionProfile::kUniform}) {
    sim::SeriesTable table;
    table.title = std::string("server group-commit ") +
                  server::ContentionProfileName(profile);
    table.x_label = "clients";
    table.series_names = {"committed", "queries_exact", "logical_conflicts",
                          "commit_batches", "throughput_tps"};
    server::ViewServer::Options options;
    options.driver.kind = sim::StrategyKind::kDeferred;
    options.driver.model = 1;
    options.driver.params = sim::TortureParams(costmodel::Params());
    options.driver.seed = 17;
    options.driver.group_commit = true;
    options.driver.pool_pages = 256;
    options.schedule.clients = 8;
    options.schedule.ops_per_client = cli.quick ? 4 : 12;
    options.schedule.update_fraction = 0.5;
    options.schedule.abort_fraction = 0.1;
    options.schedule.seed = 4242;
    options.schedule.contention = profile;
    options.commit_batch = 4;

    server::ViewServer::Result r;
    if (!RunCell(options, table.title.c_str(), &r)) return 1;
    table.AddRow(options.schedule.clients,
                 {static_cast<double>(r.committed),
                  static_cast<double>(r.queries_exact),
                  static_cast<double>(r.logical_conflicts),
                  static_cast<double>(r.commit_batches), r.throughput_tps});
    report.AddTable(table);
    ++cells;
    std::printf("%-30s serializable\n", table.title.c_str());
  }

  char summary[200];
  std::snprintf(summary, sizeof(summary),
                "%d cells across 9 model-strategy combos and 3 group-commit "
                "contention profiles; every cell serializable (no stale "
                "answer, final state equals the serial replay)",
                cells);
  std::printf("\n%s\n", summary);
  report.AddNote("invariant", summary);
  return sim::FinishBenchMain(cli, &report);
}
