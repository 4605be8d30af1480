// Golden-trace and attribution tests: the observability layer must be
// deterministic (a fixed seed yields a byte-identical span tree) and
// lossless (attribution cells always sum to the flat counters exactly).

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace viewmat::sim {
namespace {

costmodel::Params SmallParams() {
  costmodel::Params p;
  p.N = 4000;
  p.k = 30;
  p.l = 10;
  p.q = 30;
  return p;
}

TEST(Observability, Model1TraceIsByteStableForFixedSeed) {
  SimOptions options;
  options.seed = 7;

  obs::Tracer first;
  options.tracer = &first;
  auto a = Simulate(1, SmallParams(), options);
  ASSERT_TRUE(a.ok());

  obs::Tracer second;
  options.tracer = &second;
  auto b = Simulate(1, SmallParams(), options);
  ASSERT_TRUE(b.ok());

  EXPECT_GT(first.span_count(), 0u);
  // The golden property: same seed + same params → the exact same span
  // tree with the exact same model-ms stamps, byte for byte.
  EXPECT_EQ(first.ToString(), second.ToString());
  EXPECT_EQ(first.ToChromeTraceJson(), second.ToChromeTraceJson());

  // One track per strategy run plus the baseline, and the workload phases
  // show up as spans.
  const std::string tree = first.ToString();
  EXPECT_NE(tree.find("track 1:"), std::string::npos);
  EXPECT_NE(tree.find("deferred"), std::string::npos);
  EXPECT_NE(tree.find("query"), std::string::npos);
  EXPECT_NE(tree.find("txn"), std::string::npos);
}

TEST(Observability, AttributedCountersSumToFlatTotalsInAllModels) {
  const costmodel::Params params = SmallParams();
  const SimOptions options;
  auto m1 = Simulate(1, params, options);
  auto m2 = Simulate(2, params, options);
  auto m3 = Simulate(3, params, options);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  ASSERT_TRUE(m3.ok());
  for (const SimResult* result : {&*m1, &*m2, &*m3}) {
    for (const StrategyRun& run : result->runs) {
      EXPECT_TRUE(run.attributed.Total() == run.counters)
          << "model " << result->model << " run " << run.name;
      EXPECT_FALSE(run.counters.empty()) << run.name;
    }
  }
}

TEST(Observability, AttributionIsInvisibleToCostTotals) {
  // A traced + metered run must report the same counters as a bare run:
  // observability explains the cost, never changes it.
  SimOptions bare;
  auto plain = Simulate(1, SmallParams(), bare);
  ASSERT_TRUE(plain.ok());

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  SimOptions observed;
  observed.tracer = &tracer;
  observed.metrics = &metrics;
  auto traced = Simulate(1, SmallParams(), observed);
  ASSERT_TRUE(traced.ok());

  ASSERT_EQ(plain->runs.size(), traced->runs.size());
  for (size_t i = 0; i < plain->runs.size(); ++i) {
    EXPECT_TRUE(plain->runs[i].counters == traced->runs[i].counters)
        << plain->runs[i].name;
    EXPECT_DOUBLE_EQ(plain->runs[i].measured_ms_per_query,
                     traced->runs[i].measured_ms_per_query)
        << plain->runs[i].name;
  }
}

TEST(Observability, MetricsRegistryIsPopulatedByRuns) {
  obs::MetricsRegistry metrics;
  SimOptions options;
  options.metrics = &metrics;
  auto result = Simulate(1, SmallParams(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(metrics.counter_count(), 0u);
  EXPECT_GT(metrics.histogram_count(), 0u);
  // Strategy labels appear in the rendered metrics.
  const std::string text = metrics.ToString();
  EXPECT_NE(text.find("strategy=deferred"), std::string::npos) << text;
}

TEST(Observability, SimResultToStringCarriesRunMetadata) {
  SimOptions options;
  options.seed = 99;
  auto result = Simulate(1, SmallParams(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->model, 1);
  EXPECT_EQ(result->seed, 99u);
  EXPECT_GT(result->buffer_pool_pages, 0u);
  const std::string text = result->ToString();
  EXPECT_NE(text.find("seed=99"), std::string::npos) << text;
  EXPECT_NE(text.find("pool_pages="), std::string::npos) << text;
}

}  // namespace
}  // namespace viewmat::sim
