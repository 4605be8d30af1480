#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace viewmat::obs {

namespace {

int64_t FloorWindow(double t_ms, double window_ms) {
  return static_cast<int64_t>(std::floor(t_ms / window_ms));
}

}  // namespace

EwmaGauge::EwmaGauge(double half_life_ms) : half_life_ms_(half_life_ms) {
  VIEWMAT_CHECK(half_life_ms > 0);
}

void EwmaGauge::Observe(double t_ms, double value) {
  if (count_ == 0) {
    value_ = value;
  } else {
    const double dt = std::max(0.0, t_ms - last_t_ms_);
    const double w = std::exp2(-dt / half_life_ms_);
    value_ = w * value_ + (1.0 - w) * value;
  }
  last_t_ms_ = t_ms;
  ++count_;
}

SlidingWindowHistogram::SlidingWindowHistogram(std::vector<double> bounds,
                                               double window_ms,
                                               size_t window_count)
    : bounds_(std::move(bounds)), window_ms_(window_ms) {
  VIEWMAT_CHECK(window_ms > 0);
  VIEWMAT_CHECK(window_count > 0);
  slots_.resize(window_count);
  for (Slot& slot : slots_) slot.counts.assign(bounds_.size() + 1, 0);
}

int64_t SlidingWindowHistogram::WindowIndex(double t_ms) const {
  return FloorWindow(t_ms, window_ms_);
}

void SlidingWindowHistogram::Observe(double t_ms, double v) {
  const int64_t w = WindowIndex(t_ms);
  size_t bucket = 0;
  while (bucket < bounds_.size() && v > bounds_[bucket]) ++bucket;
  if (latest_index_ >= 0 &&
      w <= latest_index_ - static_cast<int64_t>(slots_.size())) {
    return;  // older than the ring's span: outside the sliding window
  }
  Slot& slot = slots_[static_cast<size_t>(w % static_cast<int64_t>(
                          slots_.size()))];
  if (slot.index != w) {
    // Rotation: this ring slot last held a window that has since slid out.
    std::fill(slot.counts.begin(), slot.counts.end(), 0);
    slot.total = 0;
    slot.index = w;
  }
  ++slot.counts[bucket];
  ++slot.total;
  latest_index_ = std::max(latest_index_, w);
}

std::vector<uint64_t> SlidingWindowHistogram::MergedCounts(double t_ms) const {
  const int64_t cur = WindowIndex(t_ms);
  const int64_t oldest = cur - static_cast<int64_t>(slots_.size()) + 1;
  std::vector<uint64_t> merged(bounds_.size() + 1, 0);
  for (const Slot& slot : slots_) {
    if (slot.index < oldest || slot.index > cur) continue;
    for (size_t i = 0; i < merged.size(); ++i) merged[i] += slot.counts[i];
  }
  return merged;
}

uint64_t SlidingWindowHistogram::MergedCount(double t_ms) const {
  const int64_t cur = WindowIndex(t_ms);
  const int64_t oldest = cur - static_cast<int64_t>(slots_.size()) + 1;
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.index < oldest || slot.index > cur) continue;
    total += slot.total;
  }
  return total;
}

double SlidingWindowHistogram::Quantile(double t_ms, double q) const {
  const std::vector<uint64_t> counts = MergedCounts(t_ms);
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank && counts[i] > 0) {
      // +inf bucket: clamp to the largest finite bound (see header).
      return i < bounds_.size() ? bounds_[i]
                                : (bounds_.empty() ? 0.0 : bounds_.back());
    }
  }
  // Only reachable for q <= 0: report the smallest occupied bucket.
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) {
      return i < bounds_.size() ? bounds_[i]
                                : (bounds_.empty() ? 0.0 : bounds_.back());
    }
  }
  return 0.0;
}

}  // namespace viewmat::obs
