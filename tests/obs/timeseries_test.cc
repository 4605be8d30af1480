#include "obs/timeseries.h"

#include <cmath>
#include <vector>

#include "gtest/gtest.h"

namespace viewmat::obs {
namespace {

// ------------------------------------------------------------------- ewma

TEST(EwmaGauge, FirstSampleSetsTheAverageDirectly) {
  EwmaGauge g(50.0);
  EXPECT_EQ(g.value(), 0.0);
  g.Observe(10.0, 42.0);
  EXPECT_DOUBLE_EQ(g.value(), 42.0);
}

TEST(EwmaGauge, OneHalfLifeMovesHalfway) {
  EwmaGauge g(50.0);
  g.Observe(0.0, 100.0);
  g.Observe(50.0, 0.0);  // dt = one half-life: weight of the past is 1/2
  EXPECT_NEAR(g.value(), 50.0, 1e-12);
}

TEST(EwmaGauge, FirstSampleAtTimeZeroIsExact) {
  // t = 0 coincides with the default last_t_ms_; the first-sample branch
  // must not mistake that for "dt = 0 since a previous sample" and blend
  // 42 with the initial 0.
  EwmaGauge g(50.0);
  g.Observe(0.0, 42.0);
  EXPECT_DOUBLE_EQ(g.value(), 42.0);
  EXPECT_EQ(g.count(), 1u);
}

TEST(EwmaGauge, ObservedOnceReportsThatSampleExactly) {
  // Exact equality, not NEAR: a gauge with one observation IS that
  // observation, wherever in time it landed and whatever the half-life.
  for (const double half_life : {1e-3, 50.0, 1e9}) {
    for (const double t : {-100.0, 0.0, 1e-9, 1e12}) {
      EwmaGauge g(half_life);
      EXPECT_EQ(g.count(), 0u);
      g.Observe(t, 0.125);
      EXPECT_EQ(g.value(), 0.125)
          << "half_life=" << half_life << " t=" << t;
      EXPECT_EQ(g.count(), 1u);
    }
  }
}

// -------------------------------------------------- sliding-window histogram

std::vector<double> Bounds() { return {1.0, 10.0, 100.0}; }

TEST(SlidingWindowHistogram, EmptyWindowQuantileIsZero) {
  SlidingWindowHistogram h(Bounds(), 100.0, 4);
  EXPECT_EQ(h.MergedCount(0.0), 0u);
  EXPECT_EQ(h.Quantile(0.0, 0.5), 0.0);
  // Observed long ago, then queried in a far-future window: every ring slot
  // has rotated out, so the merged window is empty again.
  h.Observe(0.0, 5.0);
  EXPECT_EQ(h.MergedCount(1e9), 0u);
  EXPECT_EQ(h.Quantile(1e9, 0.5), 0.0);
}

TEST(SlidingWindowHistogram, SingleSampleReportsItsBucketAtEveryQuantile) {
  SlidingWindowHistogram h(Bounds(), 100.0, 4);
  h.Observe(10.0, 5.0);  // bucket (1, 10]
  EXPECT_EQ(h.MergedCount(10.0), 1u);
  for (const double q : {0.01, 0.5, 0.95, 1.0}) {
    EXPECT_EQ(h.Quantile(10.0, q), 10.0) << "q=" << q;
  }
}

TEST(SlidingWindowHistogram, QuantileSaturatesAtLargestFiniteBound) {
  SlidingWindowHistogram h(Bounds(), 100.0, 4);
  h.Observe(10.0, 1e6);  // lands in the +inf bucket
  EXPECT_EQ(h.Quantile(10.0, 0.5), 100.0);
}

TEST(SlidingWindowHistogram, RotationExactlyOnWindowBoundary) {
  // Ring of 2 windows of 100 ms. A sample at exactly t = k*100 opens window
  // k (half-open convention), which must recycle the slot window k-2 held.
  SlidingWindowHistogram h(Bounds(), 100.0, 2);
  h.Observe(0.0, 0.5);    // window 0, bucket (..1]
  h.Observe(100.0, 5.0);  // window 1 — exactly on the boundary
  // Both windows are inside the 2-window ring.
  EXPECT_EQ(h.MergedCount(100.0), 2u);
  EXPECT_EQ(h.Quantile(100.0, 0.25), 1.0);
  h.Observe(200.0, 50.0);  // window 2 — recycles window 0's slot in place
  EXPECT_EQ(h.MergedCount(200.0), 2u);  // windows 1 and 2; window 0 gone
  auto counts = h.MergedCounts(200.0);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 0u);  // the 0.5 sample rotated out
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  // A stale sample for the rotated-out window 0 is dropped, not revived.
  h.Observe(10.0, 0.5);
  EXPECT_EQ(h.MergedCount(200.0), 2u);
}

TEST(SlidingWindowHistogram, MergedCountsSpanOnlyTheTrailingWindows) {
  SlidingWindowHistogram h(Bounds(), 100.0, 3);
  h.Observe(50.0, 5.0);    // window 0
  h.Observe(150.0, 5.0);   // window 1
  h.Observe(250.0, 5.0);   // window 2
  EXPECT_EQ(h.MergedCount(250.0), 3u);
  // Viewed from window 3 the trailing 3 windows are {1, 2, 3}.
  EXPECT_EQ(h.MergedCount(350.0), 2u);
}

}  // namespace
}  // namespace viewmat::obs
