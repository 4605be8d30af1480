#ifndef VIEWMAT_OBS_TIMESERIES_H_
#define VIEWMAT_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace viewmat::obs {

/// Time-series primitives over the *model-milliseconds* virtual clock.
///
/// Every type here takes timestamps, never reads a wall clock: the caller
/// passes the model time of each sample (usually CostTracker::TotalMs()).
/// That makes time-series output exactly as deterministic as the simulation
/// that produced it — byte-identical from run to run — and lets a
/// "one hour of traffic" experiment run in milliseconds of wall time.
///
/// Windowing convention: time is divided into fixed windows of
/// `window_ms`; a sample at time t belongs to window floor(t / window_ms).
/// A sample landing exactly on a boundary k*window_ms therefore opens
/// window k (half-open intervals [k*W, (k+1)*W)).
///
/// Single-owner, like the metrics registry: each instance belongs to the
/// one run that records into it (storage::TimelineRecorder keeps one set
/// per strategy run), so nothing here locks.

/// Exponentially-weighted moving average with a half-life in model ms.
/// Irregular sampling: the old average's weight decays by 2^(-dt/half_life)
/// where dt is the model time since the previous sample, so a burst of
/// samples and a trickle age at the same rate per model millisecond.
/// Samples must arrive in non-decreasing time order.
class EwmaGauge {
 public:
  explicit EwmaGauge(double half_life_ms);

  void Observe(double t_ms, double value);

  /// Current smoothed value (0 before the first sample; the first sample
  /// sets the average directly).
  double value() const { return value_; }
  uint64_t count() const { return count_; }
  double half_life_ms() const { return half_life_ms_; }

 private:
  const double half_life_ms_;
  double value_ = 0;
  double last_t_ms_ = 0;
  uint64_t count_ = 0;
};

/// Fixed-bucket histogram over a sliding window of the last `window_count`
/// windows of `window_ms` each — quantile estimates that track the recent
/// past instead of the whole run. `bounds` are inclusive upper bounds of
/// the finite buckets plus an implicit +inf bucket (same convention as
/// obs::Histogram). Old windows are recycled in place (a ring), so memory
/// is O(window_count * buckets) regardless of run length.
///
/// Samples must arrive in non-decreasing window order; a sample for a
/// window older than the ring's span is dropped (it is outside the sliding
/// window by definition).
class SlidingWindowHistogram {
 public:
  SlidingWindowHistogram(std::vector<double> bounds, double window_ms,
                         size_t window_count);

  void Observe(double t_ms, double v);

  /// Per-bucket counts summed over the sliding window ending at the window
  /// containing t_ms (bounds.size() + 1 entries).
  std::vector<uint64_t> MergedCounts(double t_ms) const;
  /// Total samples in the sliding window at t_ms.
  uint64_t MergedCount(double t_ms) const;

  /// Quantile estimate over the sliding window at t_ms: the smallest bucket
  /// upper bound whose cumulative count reaches q of the window's samples.
  /// A single-sample window therefore reports that sample's bucket bound at
  /// every q in (0, 1]. Saturates at the largest finite bound when the
  /// quantile falls in the +inf bucket (a deliberate, serialization-safe
  /// clamp), and returns 0 for an empty window.
  double Quantile(double t_ms, double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  double window_ms() const { return window_ms_; }
  size_t window_count() const { return slots_.size(); }

 private:
  struct Slot {
    int64_t index = -1;  ///< -1 = never used
    std::vector<uint64_t> counts;
    uint64_t total = 0;
  };

  int64_t WindowIndex(double t_ms) const;

  const std::vector<double> bounds_;
  const double window_ms_;
  std::vector<Slot> slots_;
  int64_t latest_index_ = -1;  ///< newest window ever observed
};

}  // namespace viewmat::obs

#endif  // VIEWMAT_OBS_TIMESERIES_H_
