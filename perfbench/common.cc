#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "workload/workload.h"

namespace perfbench {

using viewmat::storage::Component;
using viewmat::storage::Phase;

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Fail(const std::string& why, uint64_t count) {
  failed += count;
  // A systematic failure repeats per op; the first reasons are enough.
  constexpr size_t kMaxProblems = 20;
  if (problems_.size() < kMaxProblems) problems_.push_back(why);
}

double SteadyMsClock::NowMs() const {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin_)
      .count();
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ChunkedPercentile(const std::vector<double>& samples, size_t chunk,
                         double q) {
  if (chunk == 0 || samples.size() < 2 * chunk) return Percentile(samples, q);
  std::vector<double> per_chunk;
  for (size_t at = 0; at + chunk <= samples.size(); at += chunk) {
    per_chunk.push_back(Percentile(
        std::vector<double>(samples.begin() + at, samples.begin() + at + chunk),
        q));
  }
  return Median(per_chunk);
}

void AppendWindowRates(const std::vector<double>& ends, double length,
                       double window, std::vector<double>* rates) {
  if (!(length > 0.0)) return;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(length / window));
  const double width = length / n;
  std::vector<double> counts(n, 0.0);
  for (const double end : ends) {
    const double at = std::clamp(end / width, 0.0, static_cast<double>(n - 1));
    counts[static_cast<size_t>(at)] += 1.0;
  }
  for (const double c : counts) rates->push_back(c / width);
}

double PeakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

viewmat::costmodel::Params PaperParams(bool tiny) {
  viewmat::costmodel::Params params;  // the paper's defaults
  if (tiny) {
    params.N = 4000;
    params.l = 5;
  }
  return params;
}

OpStream::OpStream(const viewmat::costmodel::Params& params, uint64_t seed,
                   double update_fraction)
    : rng_(seed ^ 0x6a09e667f3bcc909ULL),
      update_fraction_(update_fraction),
      n_(static_cast<int64_t>(params.N)),
      l_(static_cast<int64_t>(params.l)),
      view_keys_(static_cast<int64_t>(params.f * params.N)),
      range_(std::max<int64_t>(
          1, static_cast<int64_t>(params.f_v * params.f * params.N))) {}

PaperOp OpStream::Next() {
  PaperOp op;
  op.is_update = rng_.NextDouble() < update_fraction_;
  if (op.is_update) {
    op.victims.reserve(static_cast<size_t>(l_));
    for (int64_t i = 0; i < l_; ++i) {
      const int64_t key = static_cast<int64_t>(rng_.Uniform(n_));
      const double delta = static_cast<double>(1 + rng_.Uniform(9));
      op.victims.emplace_back(key, delta);
    }
  } else {
    op.lo = static_cast<int64_t>(rng_.Uniform(view_keys_ - range_ + 1));
    op.hi = op.lo + range_ - 1;
  }
  return op;
}

int64_t ExpectedRangeCount(const viewmat::sim::ShadowOracle& shadow, int64_t lo,
                           int64_t hi) {
  const int64_t top = std::min(hi, shadow.f_cut - 1);
  const int64_t bottom = std::max<int64_t>(lo, 0);
  return top >= bottom ? top - bottom + 1 : 0;
}

viewmat::db::Transaction BuildDeltaTxn(
    const viewmat::sim::ShadowOracle& shadow, viewmat::db::Relation* rel,
    const std::vector<std::pair<int64_t, double>>& victims,
    std::map<int64_t, double>* staged) {
  using viewmat::workload::Scenario;
  viewmat::db::Transaction txn;
  for (const auto& [key, delta] : victims) {
    const auto it = staged->find(key);
    const double old_v = it != staged->end() ? it->second : shadow.v[key];
    const double new_v = old_v + delta;
    viewmat::db::Tuple old_t = shadow.BaseTuple(key);
    old_t.at(Scenario::kFieldV) = viewmat::db::Value(old_v);
    viewmat::db::Tuple new_t = old_t;
    new_t.at(Scenario::kFieldV) = viewmat::db::Value(new_v);
    txn.Update(rel, old_t, new_t);
    (*staged)[key] = new_v;
  }
  return txn;
}

WorkCounts WorkCounts::Of(viewmat::sim::StrategyDriver* driver) {
  WorkCounts w;
  w.attributed = driver->tracker()->attributed();
  w.disk_ops = driver->disk()->op_count();
  w.wal_syncs_forced = driver->pool()->wal_syncs_forced();
  return w;
}

WorkCounts& WorkCounts::operator+=(const WorkCounts& rhs) {
  attributed += rhs.attributed;
  disk_ops += rhs.disk_ops;
  wal_syncs_forced += rhs.wal_syncs_forced;
  return *this;
}

WorkCounts WorkCounts::operator-(const WorkCounts& rhs) const {
  WorkCounts d;
  d.attributed = attributed - rhs.attributed;
  d.disk_ops = disk_ops - rhs.disk_ops;
  d.wal_syncs_forced = wal_syncs_forced - rhs.wal_syncs_forced;
  return d;
}

void AddWorkMetrics(const WorkCounts& work, double ops, Report* report) {
  const double per = ops > 0.0 ? 1.0 / ops : 0.0;
  const viewmat::storage::AttributedCounters& a = work.attributed;
  const viewmat::storage::CostCounters total = a.Total();
  report->Add("view.screen_tests_per_op", total.screen_tests * per, "count");
  report->Add("view.tuple_cpu_per_op", total.tuple_cpu_ops * per, "count");
  report->Add("hr.ad_set_ops_per_op", total.ad_set_ops * per, "count");
  const auto comp = [&](Component c) { return a.ComponentTotal(c); };
  report->Add("storage.bptree.reads_per_op",
              comp(Component::kBptree).disk_reads * per, "pages");
  report->Add("storage.bptree.writes_per_op",
              comp(Component::kBptree).disk_writes * per, "pages");
  report->Add("storage.hash_index.reads_per_op",
              comp(Component::kHashIndex).disk_reads * per, "pages");
  report->Add("storage.hash_index.writes_per_op",
              comp(Component::kHashIndex).disk_writes * per, "pages");
  report->Add("storage.wal.writes_per_op",
              comp(Component::kWal).disk_writes * per, "pages");
  report->Add("storage.ad_log.writes_per_op",
              comp(Component::kAdLog).disk_writes * per, "pages");
  report->Add("storage.buffer_pool.writes_per_op",
              comp(Component::kBufferPool).disk_writes * per, "pages");
  report->Add("storage.disk_ops_per_op", work.disk_ops * per, "count");
  report->Add("storage.wal_syncs_forced",
              static_cast<double>(work.wal_syncs_forced), "count");
  report->Add("phase.query.ios_per_op",
              a.PhaseTotal(Phase::kQuery).disk_ios() * per, "pages");
  report->Add("phase.update_apply.ios_per_op",
              a.PhaseTotal(Phase::kUpdateApply).disk_ios() * per, "pages");
  report->Add("phase.refresh.ios_per_op",
              a.PhaseTotal(Phase::kRefresh).disk_ios() * per, "pages");
}

bool IsViewSpan(const std::string& name) {
  return name == "txn" || name == "query" || name == "refresh" ||
         name == "recompute" || name.rfind("refresh.", 0) == 0 ||
         name.rfind("recover", 0) == 0;
}

SpanForest::SpanForest(std::vector<viewmat::obs::Span> spans)
    : spans_(std::move(spans)), children_(spans_.size()) {
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children_[spans_[i].parent - 1].push_back(i);
  }
}

double SpanForest::DurationUs(size_t i) const {
  const viewmat::obs::Span& s = spans_[i];
  return s.end_ms >= s.begin_ms ? (s.end_ms - s.begin_ms) * 1000.0 : 0.0;
}

double SpanForest::SelfUs(size_t i) const {
  double self = DurationUs(i);
  for (const size_t c : children_[i]) self -= DurationUs(c);
  return std::max(0.0, self);
}

bool SpanForest::UnderView(size_t i) const {
  for (uint32_t p = spans_[i].parent; p != 0; p = spans_[p - 1].parent) {
    if (IsViewSpan(spans_[p - 1].name)) return true;
  }
  return false;
}

ViewLayerTimes SpanForest::ViewTimes() const {
  ViewLayerTimes v;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& name = spans_[i].name;
    if (!IsViewSpan(name)) continue;
    const bool root = !UnderView(i);
    if (root) v.root_us += DurationUs(i);
    if (root && name == "txn") v.txn_us.push_back(DurationUs(i));
    if (root && name == "query") v.query_us.push_back(DurationUs(i));
    if (name == "refresh") {
      bool nested = false;
      for (uint32_t p = spans_[i].parent; p != 0 && !nested;
           p = spans_[p - 1].parent) {
        nested = spans_[p - 1].name == "refresh";
      }
      if (!nested) v.refresh_us += DurationUs(i);
    }
  }
  return v;
}

double SpanForest::ViewUnionUs() const {
  std::vector<std::pair<double, double>> iv;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (IsViewSpan(spans_[i].name) && !UnderView(i) &&
        spans_[i].end_ms >= spans_[i].begin_ms) {
      iv.emplace_back(spans_[i].begin_ms, spans_[i].end_ms);
    }
  }
  std::sort(iv.begin(), iv.end());
  double total_ms = 0.0;
  double cur_lo = 0.0, cur_hi = -1.0;
  for (const auto& [lo, hi] : iv) {
    if (lo > cur_hi) {
      if (cur_hi > cur_lo) total_ms += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (cur_hi > cur_lo) total_ms += cur_hi - cur_lo;
  return total_ms * 1000.0;
}

void AddLatencyMetrics(const std::vector<double>& update_us,
                       const std::vector<double>& query_us, bool traced,
                       size_t chunk, Report* report) {
  if (traced) {
    report->Add("update_p50_us", ChunkedPercentile(update_us, chunk, 0.50),
                "us");
    report->Add("query_p50_us", ChunkedPercentile(query_us, chunk, 0.50), "us");
  } else {
    report->Add("update_p99_us", ChunkedPercentile(update_us, chunk, 0.99),
                "us");
    report->Add("query_p99_us", ChunkedPercentile(query_us, chunk, 0.99), "us");
  }
}

void AddViewMetrics(const ViewLayerTimes& view, Report* report) {
  report->Add("view.txn_p50_us", Median(view.txn_us), "us");
  report->Add("view.query_p50_us", Median(view.query_us), "us");
  report->Add("view.refresh_us_per_query",
              view.query_us.empty()
                  ? 0.0
                  : view.refresh_us / static_cast<double>(view.query_us.size()),
              "us");
}

void WriteTrace(const viewmat::obs::Tracer& tracer, const std::string& dir,
                const std::string& name) {
  const std::string path = dir + "/perfbench-" + name + ".trace.json";
  std::ofstream out(path);
  out << tracer.ToChromeTraceJson();
  if (!out) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
