// Crash-safety torture sweep: drives the Model 1 and Model 2 workloads
// through EVERY maintenance strategy on a fault-injecting disk —
// transient read/write faults, torn writes, scripted protocol and
// disk-operation crashes — at increasing fault rates, and reports
// per-rate recovery/degradation counters. The RecoveryManager-committing
// strategies (query-modification, immediate, snapshot,
// recompute-on-change) exercise the unified redo WAL; deferred and
// hybrid exercise the journaled AD protocol. The acceptance bar is in
// the last two columns: zero corrupt and zero silently-stale runs at
// every rate for every strategy (every successful query is exact, the
// converged answer equals a from-scratch recompute, and the base holds
// exactly the committed state).

#include <cstdio>
#include <string>

#include "sim/bench_report.h"
#include "sim/fault_sweep.h"

using namespace viewmat;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_fault_sweep", cli.quick);
  int grand_runs = 0;
  for (const int model : {1, 2}) {
    for (const sim::StrategyKind kind : sim::kAllStrategyKinds) {
      if (!sim::SupportsModel(kind, model)) continue;
      sim::FaultSweepOptions options;
      options.strategy = kind;
      options.model = model;
      options.runs_per_rate = cli.quick ? 4 : 25;
      options.fault_rates = cli.quick
                                ? std::vector<double>{0.0, 0.03, 0.15}
                                : std::vector<double>{0.0, 0.01, 0.03, 0.08,
                                                      0.15};
      auto result = sim::SimulateFaultSweep(options);
      if (!result.ok()) {
        std::fprintf(stderr, "model %d %s sweep failed: %s\n", model,
                     sim::StrategyKindName(kind),
                     result.status().ToString().c_str());
        return 1;
      }
      std::printf(
          "Crash-safety torture sweep — Model %d, %s, %d seeded runs per "
          "rate\n%s\n",
          model, sim::StrategyKindName(kind), options.runs_per_rate,
          result->ToString().c_str());
      const std::string key = "model" + std::to_string(model) + "." +
                              sim::StrategyKindName(kind);
      report.AddNote(key + ".table", result->ToString());
      // Numeric mirror of the text table so bench_diff can gate on it:
      // any per-rate outcome drift against the committed baseline (the
      // sweep is deterministic) surfaces as a compared-metric delta.
      sim::SeriesTable table;
      table.title = "fault-sweep " + key;
      table.x_label = "fault_rate";
      table.series_names = {"faults_injected", "crashes",    "recoveries",
                            "degraded_queries", "rejected_txns",
                            "failed_queries",   "corrupt_runs",
                            "silently_stale_runs"};
      for (const sim::FaultSweepCell& cell : result->cells) {
        table.AddRow(cell.fault_rate,
                     {static_cast<double>(cell.faults_injected),
                      static_cast<double>(cell.crashes),
                      static_cast<double>(cell.recoveries),
                      static_cast<double>(cell.degraded_queries),
                      static_cast<double>(cell.rejected_txns),
                      static_cast<double>(cell.failed_queries),
                      static_cast<double>(cell.corrupt_runs),
                      static_cast<double>(cell.silently_stale_runs)});
      }
      report.AddTable(table);
      char totals[128];
      std::snprintf(totals, sizeof(totals),
                    "runs=%d corrupt=%d silently_stale=%d", result->total_runs,
                    result->total_corrupt, result->total_silently_stale);
      report.AddNote(key + ".totals", totals);
      grand_runs += result->total_runs;
      if (result->total_corrupt != 0 || result->total_silently_stale != 0) {
        std::fprintf(stderr,
                     "FAILED (%s, model %d): %d corrupt, %d silently-stale "
                     "runs\n",
                     sim::StrategyKindName(kind), model, result->total_corrupt,
                     result->total_silently_stale);
        return 1;
      }
    }
  }
  std::printf(
      "\ninvariant held across %d runs and every strategy: every "
      "acknowledged answer exact, every run converged to the from-scratch "
      "recompute.\n",
      grand_runs);
  char summary[160];
  std::snprintf(summary, sizeof(summary),
                "%d runs across all strategies; every acknowledged answer "
                "exact; every run converged to the from-scratch recompute",
                grand_runs);
  report.AddNote("invariant", summary);
  return sim::FinishBenchMain(cli, &report);
}
