// Shared plumbing for the wall-clock benchmark: run settings, the metric
// report, timing helpers, work-count snapshots read from the engines'
// CostTrackers, and the span-tree analysis that turns a traced run into
// per-layer self times.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "costmodel/params.h"
#include "obs/trace.h"
#include "sim/strategy_driver.h"
#include "storage/cost_tracker.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny database and op counts: the self-check's smoke mode.
  bool tiny = false;
  /// Where a traced run writes its spans (Chrome trace JSON).
  std::string out_dir = ".";
};

/// One named measurement.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload run reports: metrics by name plus op tallies. A
/// failed correctness check counts as a failed op.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records `count` failed ops with the reason (count may be 0 for a check
  /// that invalidates the run without naming an op).
  void Fail(const std::string& why, uint64_t count = 1);

  bool correct() const { return problems_.empty(); }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& problems() const { return problems_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// The steady clock as a tracer time source, in milliseconds since the
/// clock object was made.
class SteadyMsClock : public viewmat::obs::VirtualClock {
 public:
  double NowMs() const override;

 private:
  Clock::time_point origin_ = Clock::now();
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Median over consecutive chunks of `chunk` samples (in completion order)
/// of each chunk's q-th percentile. A chunk of 1,000 leaves ten samples
/// beyond a p99; interference from other tenants, which comes in episodes
/// of seconds, then moves only the chunks it overlaps. A chunk of 0 takes
/// the percentile over all samples.
double ChunkedPercentile(const std::vector<double>& samples, size_t chunk,
                         double q);
/// Splits a timed interval of `length` seconds into equal windows of about
/// `window` seconds and appends each window's completed-op rate. `ends`
/// are op completion times in seconds since the interval began.
void AppendWindowRates(const std::vector<double>& ends, double length,
                       double window, std::vector<double>* rates);
/// Latency samples per chunk (see ChunkedPercentile).
inline constexpr size_t kLatencyChunk = 1000;
/// Throughput window length in seconds.
inline constexpr double kRateWindowS = 0.5;

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// The paper's default parameter set (N=100,000, S=100, B=4,000, f=0.1,
/// f_v=0.1, l=25), or a tiny database for the self-check.
viewmat::costmodel::Params PaperParams(bool tiny);

/// A seeded stream of paper-shaped operations: updates of `l` uniformly
/// chosen base keys by integer deltas (exact sums, so a lost or duplicated
/// update always shows), and queries over a random f_v slice of the view.
struct PaperOp {
  bool is_update = false;
  std::vector<std::pair<int64_t, double>> victims;
  int64_t lo = 0;
  int64_t hi = 0;
};
class OpStream {
 public:
  OpStream(const viewmat::costmodel::Params& params, uint64_t seed,
           double update_fraction);
  PaperOp Next();

 private:
  viewmat::Random rng_;
  double update_fraction_;
  int64_t n_;
  int64_t l_;
  int64_t view_keys_;
  int64_t range_;
};

/// Tuples a view range query must return: every base key in [lo, hi] below
/// the predicate cut appears once (Model 2 joins each one to exactly one R2
/// tuple), so the count is known without touching the engine.
int64_t ExpectedRangeCount(const viewmat::sim::ShadowOracle& shadow, int64_t lo,
                           int64_t hi);

/// The update transaction for `victims` against `shadow` (a key hit twice
/// sees its own earlier write); `staged` receives the new values.
viewmat::db::Transaction BuildDeltaTxn(
    const viewmat::sim::ShadowOracle& shadow, viewmat::db::Relation* rel,
    const std::vector<std::pair<int64_t, double>>& victims,
    std::map<int64_t, double>* staged);

/// Storage and CPU work counts read from engines' public counters, summed
/// over however many engines a workload drives.
struct WorkCounts {
  viewmat::storage::AttributedCounters attributed;
  uint64_t disk_ops = 0;
  uint64_t wal_syncs_forced = 0;

  static WorkCounts Of(viewmat::sim::StrategyDriver* driver);
  WorkCounts& operator+=(const WorkCounts& rhs);
  WorkCounts operator-(const WorkCounts& rhs) const;
};

/// Adds the C1/C3 and storage per-op work metrics for `ops` operations.
void AddWorkMetrics(const WorkCounts& work, double ops, Report* report);

/// The view-layer part of a span forest recorded on the steady clock: view
/// spans are the strategies' own txn / query / refresh.* / recover* /
/// recompute spans; a "root" is a view span with no view-span ancestor.
struct ViewLayerTimes {
  std::vector<double> txn_us;    ///< root "txn" span durations
  std::vector<double> query_us;  ///< root "query" span durations
  double refresh_us = 0.0;       ///< outermost "refresh" spans, summed
  double root_us = 0.0;          ///< all view roots, summed
};

bool IsViewSpan(const std::string& name);

/// Index helpers over a flushed span list (parents are 1-based positions).
class SpanForest {
 public:
  explicit SpanForest(std::vector<viewmat::obs::Span> spans);

  size_t size() const { return spans_.size(); }
  const viewmat::obs::Span& span(size_t i) const { return spans_[i]; }
  double DurationUs(size_t i) const;
  /// Duration minus the time its direct children cover.
  double SelfUs(size_t i) const;
  const std::vector<size_t>& children(size_t i) const { return children_[i]; }
  /// True when some ancestor of span i is a view span.
  bool UnderView(size_t i) const;

  ViewLayerTimes ViewTimes() const;
  /// Wall time covered by the union of all view-root intervals (roots on
  /// different threads may overlap).
  double ViewUnionUs() const;

 private:
  std::vector<viewmat::obs::Span> spans_;
  std::vector<std::vector<size_t>> children_;
};

/// Adds the per-op latency metrics of an untraced phase: the p99s (end to
/// end) in an untraced run, the p50s (per layer) in a traced one, each
/// computed as ChunkedPercentile with `chunk`.
void AddLatencyMetrics(const std::vector<double>& update_us,
                       const std::vector<double>& query_us, bool traced,
                       size_t chunk, Report* report);

/// Adds view.txn_p50_us, view.query_p50_us, view.refresh_us_per_query.
void AddViewMetrics(const ViewLayerTimes& view, Report* report);

/// Writes the spans as Chrome trace JSON to `<dir>/perfbench-<name>.json`.
void WriteTrace(const viewmat::obs::Tracer& tracer, const std::string& dir,
                const std::string& name);

/// The workloads. Each runs its timed phase for config.seconds (split into
/// an untraced and a traced half when config.trace is set), checks its
/// answers outside the timed phase, and fills `report`.
void RunWireDeferred(const Config& config, Report* report);
void RunServerDisjoint(const Config& config, Report* report);
void RunEngineCold(const Config& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
