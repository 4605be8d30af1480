// Chaos sweep for the sessioned wire protocol: fault profiles {clean,
// drop, duplicate, reorder, delay, partition, crash+partition} × all nine
// model×strategy combos × seeded runs, each run a full client/server
// simulation over the fault-injecting transport.
//
// The bench itself enforces the PR's core invariant before reporting
// anything: in EVERY cell the chaos oracle must come back clean — zero
// lost acked commits, zero duplicate applications, final state equal to a
// serial replay of the acked ledger, every acked query exact at its
// journal prefix, and every run live. Any violation exits nonzero.
//
// Everything in the tables is computed on the virtual clock, so the
// report is deterministic and gated by bench_diff against the committed
// BENCH_chaos.json; run fan-out across --jobs merges in run order, so any
// worker count produces byte-identical tables. Wall-clock observations
// live in the execution block — never gated, never compared across runs.

#include <cstdio>
#include <string>
#include <vector>

#include "net/chaos_oracle.h"
#include "sim/bench_report.h"

using namespace viewmat;

namespace {

struct Combo {
  sim::StrategyKind kind;
  int model;
};

/// The nine strategy×model combos the repo's oracles sweep: model 1
/// supports every maintenance strategy, model 2 (the join view) the three
/// the paper analyzes.
constexpr Combo kCombos[] = {
    {sim::StrategyKind::kQueryModification, 1},
    {sim::StrategyKind::kImmediate, 1},
    {sim::StrategyKind::kDeferred, 1},
    {sim::StrategyKind::kSnapshot, 1},
    {sim::StrategyKind::kRecomputeOnChange, 1},
    {sim::StrategyKind::kHybrid, 1},
    {sim::StrategyKind::kQueryModification, 2},
    {sim::StrategyKind::kImmediate, 2},
    {sim::StrategyKind::kDeferred, 2},
};

std::string ComboName(const Combo& combo) {
  return std::string(sim::StrategyKindName(combo.kind)) + "/m" +
         std::to_string(combo.model);
}

}  // namespace

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_chaos", cli.quick);

  // Full mode: 7 profiles × 9 combos × 4 runs = 252 chaos runs. Quick
  // keeps every profile (each exercises a distinct protocol path) but
  // trims the combo list and run count.
  const int runs_per_cell = cli.quick ? 2 : 4;
  const std::vector<Combo> combos =
      cli.quick ? std::vector<Combo>{{sim::StrategyKind::kImmediate, 1},
                                     {sim::StrategyKind::kDeferred, 1},
                                     {sim::StrategyKind::kDeferred, 2}}
                : std::vector<Combo>(std::begin(kCombos), std::end(kCombos));

  uint64_t total_runs = 0;
  uint64_t total_acked = 0;
  uint64_t total_retries = 0;
  uint64_t total_crashes = 0;
  bool all_clean = true;

  for (const net::ChaosProfile profile : net::kAllChaosProfiles) {
    const char* pname = net::ChaosProfileName(profile);
    sim::SeriesTable table;
    table.title = std::string("chaos ") + pname;
    table.x_label = "combo";
    table.series_names = {"acked_commits", "acked_queries", "retries",
                          "redeliveries",  "crashes",       "recoveries",
                          "reconciled",    "violations"};

    for (size_t c = 0; c < combos.size(); ++c) {
      net::ChaosOracleOptions options;
      options.profile = profile;
      options.kind = combos[c].kind;
      options.model = combos[c].model;
      options.seed = 20240 + static_cast<uint64_t>(c);
      options.runs = runs_per_cell;
      options.jobs = cli.jobs;
      const auto result = net::RunChaosOracle(options);
      if (!result.ok()) {
        std::fprintf(stderr, "%s %s failed: %s\n", pname,
                     ComboName(combos[c]).c_str(),
                     result.status().ToString().c_str());
        return 1;
      }
      const net::ChaosOracleResult& r = *result;
      const uint64_t violations =
          r.liveness_failures + r.lost_commits + r.duplicate_applications +
          r.state_mismatches + r.replay_mismatches + r.query_mismatches +
          r.corrupt_runs;
      if (!r.Clean()) {
        all_clean = false;
        std::fprintf(stderr, "ORACLE VIOLATION %s %s: %s\n", pname,
                     ComboName(combos[c]).c_str(), r.ToString().c_str());
      }
      table.AddRow(static_cast<double>(c),
                   {static_cast<double>(r.acked_commits),
                    static_cast<double>(r.acked_queries),
                    static_cast<double>(r.client_retries),
                    static_cast<double>(r.redelivered_hits),
                    static_cast<double>(r.server_crashes),
                    static_cast<double>(r.server_recoveries),
                    static_cast<double>(r.journal_reconciled),
                    static_cast<double>(violations)});
      total_runs += r.runs;
      total_acked += r.acked_commits + r.acked_queries;
      total_retries += r.client_retries;
      total_crashes += r.server_crashes;
      std::printf("%-16s %-22s acked=%llu retries=%llu crashes=%llu %s\n",
                  pname, ComboName(combos[c]).c_str(),
                  static_cast<unsigned long long>(r.acked_commits +
                                                  r.acked_queries),
                  static_cast<unsigned long long>(r.client_retries),
                  static_cast<unsigned long long>(r.server_crashes),
                  r.Clean() ? "clean" : "VIOLATED");
    }
    report.AddTable(table);
  }

  if (!all_clean) {
    std::fprintf(stderr, "chaos oracle violated — refusing to report\n");
    return 1;
  }

  char note[256];
  std::snprintf(note, sizeof(note),
                "zero lost acked commits, zero duplicate applications, "
                "state == serial replay of the acked ledger, every acked "
                "query exact at its journal prefix — across %llu chaos runs "
                "(%llu acks, %llu retries, %llu server crashes)",
                static_cast<unsigned long long>(total_runs),
                static_cast<unsigned long long>(total_acked),
                static_cast<unsigned long long>(total_retries),
                static_cast<unsigned long long>(total_crashes));
  report.AddNote("chaos_oracle", note);
  std::printf("\nchaos oracle clean in every profile x combo cell "
              "(%llu runs)\n",
              static_cast<unsigned long long>(total_runs));
  return sim::FinishBenchMain(cli, &report);
}
