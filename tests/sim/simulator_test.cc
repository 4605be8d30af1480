#include "sim/simulator.h"

#include "sim/report.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace viewmat::sim {
namespace {

/// Small parameter set so each simulation loads quickly but still spans
/// hundreds of pages.
costmodel::Params SmallParams() {
  costmodel::Params p;
  p.N = 4000;
  p.k = 30;
  p.l = 10;
  p.q = 30;
  return p;
}

const StrategyRun* FindRun(const SimResult& result, const std::string& name) {
  for (const StrategyRun& run : result.runs) {
    if (run.name == name) return &run;
  }
  return nullptr;
}

TEST(SimulatorModel1, RunsAllStrategiesAndMeasuresCost) {
  auto result = Simulate(1, SmallParams(), SimOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->runs.size(), 5u);
  EXPECT_GT(result->baseline_ms_per_query, 0.0);
  for (const StrategyRun& run : result->runs) {
    EXPECT_GT(run.measured_ms_per_query, 0.0) << run.name;
    EXPECT_GT(run.analytical_ms_per_query, 0.0) << run.name;
    EXPECT_GT(run.counters.disk_reads, 0u) << run.name;
  }
}

TEST(SimulatorModel1, MeasuredOrderingMatchesHeadlineClaims) {
  // Shape fidelity on the baseline-adjusted (view-attributable) cost:
  // sequential is far worse than every indexed plan, unclustered is far
  // worse than clustered, and deferred carries visible HR overhead over
  // immediate (the C_AD/C_ADread terms) without being catastropically
  // worse.
  auto result = Simulate(1, SmallParams(), SimOptions{});
  ASSERT_TRUE(result.ok());
  const auto* clustered = FindRun(*result, "clustered");
  const auto* unclustered = FindRun(*result, "unclustered");
  const auto* sequential = FindRun(*result, "sequential");
  const auto* deferred = FindRun(*result, "deferred");
  const auto* immediate = FindRun(*result, "immediate");
  ASSERT_TRUE(clustered && unclustered && sequential && deferred && immediate);
  EXPECT_GT(sequential->adjusted_ms_per_query,
            10.0 * clustered->adjusted_ms_per_query);
  EXPECT_GT(unclustered->adjusted_ms_per_query,
            3.0 * clustered->adjusted_ms_per_query);
  EXPECT_GT(deferred->adjusted_ms_per_query,
            immediate->adjusted_ms_per_query);
  EXPECT_LT(deferred->adjusted_ms_per_query,
            8.0 * immediate->adjusted_ms_per_query);
  // The unclustered measurement lands near its analytical prediction
  // (the y(N, b, N*f*f_v) random-fetch term dominates both).
  EXPECT_NEAR(unclustered->adjusted_ms_per_query /
                  unclustered->analytical_ms_per_query,
              1.0, 0.5);
}

TEST(SimulatorModel2, ImmediateBeatsLoopJoinAndCostsArePositive) {
  // At this reduced N the analytical gap between materialization and the
  // nested-loops join is small (the paper's decisive Figure 5 gap needs
  // N = 100k, covered by bench_sim_validation); the robust measured shape
  // is that immediate maintenance answers join-view queries cheaper than
  // re-joining, and every strategy has a meaningful positive
  // view-attributable cost.
  auto result = Simulate(2, SmallParams(), SimOptions{});
  ASSERT_TRUE(result.ok());
  const auto* loopjoin = FindRun(*result, "loopjoin");
  const auto* deferred = FindRun(*result, "deferred");
  const auto* immediate = FindRun(*result, "immediate");
  ASSERT_TRUE(loopjoin && deferred && immediate);
  EXPECT_LT(immediate->adjusted_ms_per_query,
            loopjoin->adjusted_ms_per_query);
  EXPECT_GT(immediate->adjusted_ms_per_query, 0.0);
  EXPECT_GT(deferred->adjusted_ms_per_query, 0.0);
  EXPECT_GT(loopjoin->adjusted_ms_per_query, 0.0);
  // Deferred and loop-join are within a small factor of each other, as the
  // analytical model predicts at these parameters.
  const double ratio =
      deferred->adjusted_ms_per_query / loopjoin->adjusted_ms_per_query;
  EXPECT_GT(ratio, 0.3);
  EXPECT_LT(ratio, 3.0);
}

TEST(SimulatorModel3, MaintenanceFarCheaperThanRecompute) {
  // Figure 8's headline shape, by measurement: maintaining the aggregate
  // state costs a small fraction of recomputing it per query. (Deferred
  // carries its HR overhead, so its margin is smaller than immediate's.)
  auto result = Simulate(3, SmallParams(), SimOptions{});
  ASSERT_TRUE(result.ok());
  const auto* recompute = FindRun(*result, "recompute");
  const auto* deferred = FindRun(*result, "deferred");
  const auto* immediate = FindRun(*result, "immediate");
  ASSERT_TRUE(recompute && deferred && immediate);
  EXPECT_LT(immediate->adjusted_ms_per_query,
            0.2 * recompute->adjusted_ms_per_query);
  // Deferred's measured overhead is dominated by the HR read-original path
  // (a per-tuple B+-tree descent the closed form charges as one I/O), so
  // its margin over recomputation is thinner than the model's but must
  // still be a clear win.
  EXPECT_LT(deferred->adjusted_ms_per_query,
            0.8 * recompute->adjusted_ms_per_query);
}

TEST(Simulator, RejectsInvalidParams) {
  costmodel::Params p = SmallParams();
  p.f = 2.0;
  EXPECT_FALSE(Simulate(1, p, SimOptions{}).ok());
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto a = Simulate(3, SmallParams(), SimOptions{});
  auto b = Simulate(3, SmallParams(), SimOptions{});
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t i = 0; i < a->runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->runs[i].measured_ms_per_query,
                     b->runs[i].measured_ms_per_query);
  }
}

TEST(SeriesTable, FormatsRows) {
  SeriesTable table;
  table.title = "demo";
  table.x_label = "P";
  table.series_names = {"a", "b"};
  table.AddRow(0.5, {1.0, 2.0});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("# demo"), std::string::npos);
  EXPECT_NE(s.find("P"), std::string::npos);
  EXPECT_NE(s.find("1.00"), std::string::npos);
}

}  // namespace
}  // namespace viewmat::sim
