#ifndef VIEWMAT_SIM_BENCH_REPORT_H_
#define VIEWMAT_SIM_BENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace viewmat::sim {

/// Flags shared by every bench binary:
///   --quick        shrink parameters for smoke runs
///   --json <path>  write a machine-readable report to <path>
///   --jobs <n>     worker threads for parallel sweeps (0 = one per core)
struct BenchCli {
  bool quick = false;
  std::string json_path;  ///< empty = no JSON report requested
  size_t jobs = 0;        ///< 0 = auto (one worker per hardware thread)

  bool want_json() const { return !json_path.empty(); }
  /// The worker count sweeps should actually use: `jobs`, with 0 resolved
  /// to the hardware concurrency. Always >= 1.
  size_t effective_jobs() const;
  static BenchCli Parse(int argc, char** argv);
};

/// Collects what a bench run wants to persist — series tables, full
/// simulation results (with component × phase attribution and, when the
/// sim recorded them, per-run cost timelines), advisor explain reports,
/// free-form notes, and optionally a metrics registry and span trace —
/// and serializes everything as one JSON document (schema_version 3).
///
/// Every report carries run metadata: bench name, the git revision the
/// binary was built from, the quick flag, and an execution block (worker
/// count, hardware threads, wall-clock seconds from report construction
/// to serialization — the numerator/denominator for speedup comparisons
/// across --jobs settings); SimResults carry their own seed and pool
/// configuration. Everything outside the execution block is independent
/// of --jobs: parallel sweeps derive per-point seeds and collect results
/// in index order, so two reports at different job counts differ only in
/// the execution block.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name, bool quick = false)
      : bench_name_(std::move(bench_name)),
        quick_(quick),
        start_(std::chrono::steady_clock::now()) {}

  void AddTable(const SeriesTable& table) { tables_.push_back(table); }
  void AddSimResult(const SimResult& result) { sim_results_.push_back(result); }
  /// Attaches an advisor explain report (serialized under "explain").
  void AddExplain(const obs::ExplainReport& report) {
    explains_.push_back(report);
  }
  void AddNote(std::string_view key, std::string_view value) {
    notes_.emplace_back(key, value);
  }
  /// Attach a metrics registry / tracer (not owned; must outlive ToJson).
  void set_metrics(const obs::MetricsRegistry* metrics) { metrics_ = metrics; }
  void set_tracer(const obs::Tracer* tracer) { tracer_ = tracer; }
  /// Worker count recorded in the execution block (FinishBench sets it
  /// from the CLI; benches that parallelize by hand may set it directly).
  void set_jobs(size_t jobs) { jobs_ = jobs; }

  std::string ToJson() const;
  Status WriteTo(const std::string& path) const;

 private:
  std::string bench_name_;
  bool quick_;
  std::chrono::steady_clock::time_point start_;
  size_t jobs_ = 1;
  std::vector<SeriesTable> tables_;
  std::vector<SimResult> sim_results_;
  std::vector<obs::ExplainReport> explains_;
  std::vector<std::pair<std::string, std::string>> notes_;
  const obs::MetricsRegistry* metrics_ = nullptr;
  const obs::Tracer* tracer_ = nullptr;
};

/// Stamps the report's execution block from the CLI, then writes the
/// report when the CLI asked for one (and prints where it went); a bench
/// without --json returns OK without touching the disk.
Status FinishBench(const BenchCli& cli, BenchReport* report);

/// FinishBench packaged as a process exit code, for `return` from main().
int FinishBenchMain(const BenchCli& cli, BenchReport* report);

}  // namespace viewmat::sim

#endif  // VIEWMAT_SIM_BENCH_REPORT_H_
