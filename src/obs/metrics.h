#ifndef VIEWMAT_OBS_METRICS_H_
#define VIEWMAT_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/owner_check.h"

namespace viewmat::common {
class JsonWriter;
}

namespace viewmat::obs {

/// Metric labels: key=value pairs. The registry canonicalizes them by
/// sorting on key, so call sites may list labels in any order — the same
/// (name, label set) always resolves to the same metric, and snapshots
/// (JSON, text) always render labels in sorted order regardless of which
/// call site registered them.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. Pointer-stable once created: call-sites cache the
/// pointer and increment without re-hashing the name.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Fixed-bucket histogram. `bounds` are inclusive upper bounds of the
/// finite buckets; an implicit +inf bucket catches the rest (so counts has
/// bounds.size() + 1 entries).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  void Observe(double v) {
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    ++counts_[i];
    sum_ += v;
    ++count_;
  }

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& counts() const { return counts_; }
  double sum() const { return sum_; }
  uint64_t count() const { return count_; }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> counts_;
  double sum_ = 0;
  uint64_t count_ = 0;
};

/// Owns named, labeled counters and histograms. Get* registers on first
/// use and returns the same instance for the same (name, labels) after
/// that. Iteration order (and therefore JSON/text output) is sorted by
/// full name, so reports are deterministic.
///
/// Single-owner, like storage::CostTracker: a registry belongs to the one
/// thread that drives its engine, and parallel sweeps give each task its
/// own registry (or none). Registration asserts the contract in debug
/// builds (common::OwnerCheck). Returned pointers are stable for the
/// registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name, const Labels& labels = {});
  /// `bounds` applies on first registration only; later calls with the
  /// same (name, labels) return the existing histogram unchanged.
  Histogram* GetHistogram(std::string_view name, const Labels& labels,
                          std::vector<double> bounds);

  size_t counter_count() const { return counters_.size(); }
  size_t histogram_count() const { return histograms_.size(); }

  /// {"counters":[{"name","labels",{...},"value"}...],
  ///  "histograms":[{"name","labels",{...},"bounds","counts","sum","count"}]}
  void WriteJson(common::JsonWriter* w) const;
  /// One metric per line: name{k=v,...} value — for text reports.
  std::string ToString() const;

 private:
  struct CounterEntry {
    std::string name;
    Labels labels;
    Counter counter;
  };
  struct HistogramEntry {
    std::string name;
    Labels labels;
    Histogram histogram;
  };

  /// Labels sorted by key — the canonical form used for identity and
  /// output. Stable for equal keys, preserving first-listed precedence.
  static Labels CanonicalLabels(const Labels& labels);
  /// `labels` must already be canonical.
  static std::string FullKey(std::string_view name, const Labels& labels);

  /// Keyed by full key, so iteration is the sorted snapshot order. Map
  /// nodes never move, which keeps the returned pointers stable.
  std::map<std::string, CounterEntry> counters_;
  std::map<std::string, HistogramEntry> histograms_;
  common::OwnerCheck owner_;
};

}  // namespace viewmat::obs

#endif  // VIEWMAT_OBS_METRICS_H_
