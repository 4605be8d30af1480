#include "obs/explain.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "costmodel/model1.h"
#include "costmodel/model2.h"
#include "costmodel/model3.h"
#include "costmodel/regions.h"
#include "gtest/gtest.h"

namespace viewmat::obs {
namespace {

using costmodel::ModelCandidates;
using costmodel::ModelCostFn;
using costmodel::Params;
using costmodel::Strategy;

/// The paper's TOTAL_* formula for `s` under view model `model`.
double ModelCost(int model, Strategy s, const Params& p) {
  switch (model) {
    case 1:
      return *costmodel::Model1Cost(s, p);
    case 2:
      return *costmodel::Model2Cost(s, p);
    default:
      return *costmodel::Model3Cost(s, p);
  }
}

TEST(Explain, RanksEveryCandidateAscendingWithWinnerMarginZero) {
  const Params p;
  for (int model = 1; model <= 3; ++model) {
    const ExplainReport report = BuildExplain(model, p);
    EXPECT_EQ(report.model, model);
    ASSERT_EQ(report.ranked.size(), ModelCandidates(model).size());
    EXPECT_DOUBLE_EQ(report.ranked.front().margin_ms, 0.0);
    for (size_t i = 1; i < report.ranked.size(); ++i) {
      EXPECT_GE(report.ranked[i].cost_ms, report.ranked[i - 1].cost_ms);
      EXPECT_NEAR(report.ranked[i].margin_ms,
                  report.ranked[i].cost_ms - report.winner_cost_ms(), 1e-9);
    }
    EXPECT_FALSE(report.ranked.front().formula.empty());
  }
}

TEST(Explain, WinnerAgreesWithTheSharedCostModel) {
  Params p;
  for (const double prob : {0.05, 0.3, 0.7}) {
    const Params point = p.WithUpdateProbability(prob);
    for (int model = 1; model <= 3; ++model) {
      const ExplainReport report = BuildExplain(model, point);
      const Strategy expected = costmodel::Winner(
          ModelCostFn(model), ModelCandidates(model), point);
      EXPECT_EQ(report.winner(), expected)
          << "model " << model << " P=" << prob;
    }
  }
}

TEST(Explain, BoundariesActuallyFlipTheWinner) {
  // For every reported boundary, the challenger must win just beyond it,
  // and the search starts from the point's own value.
  struct Point {
    int model;
    Params params;
  };
  std::vector<Point> points;
  for (int model = 1; model <= 3; ++model) {
    points.push_back({model, Params().WithUpdateProbability(0.3)});
  }
  // §3.5's EMP-DEPT point: f_v = 1/N lies below the f_v axis's range.
  Params emp_dept;
  emp_dept.f = 1.0;
  emp_dept.l = 1.0;
  emp_dept.f_v = 1.0 / emp_dept.N;
  points.push_back({2, emp_dept.WithUpdateProbability(0.2)});
  for (const Point& point : points) {
    const int model = point.model;
    const Params& p = point.params;
    const ExplainReport report = BuildExplain(model, p);
    const auto cost = ModelCostFn(model);
    for (const ExplainBoundary& b : report.boundaries) {
      Params beyond = p;
      // Step slightly past the boundary, away from the current value.
      const double overshoot =
          (b.boundary - b.current) * 1e-3 + (b.boundary > b.current ? 1e-9
                                                                    : -1e-9);
      const double x = b.boundary + overshoot;
      double own = 0;
      if (b.param == "P") {
        beyond = p.WithUpdateProbability(x);
        own = p.P();
      } else if (b.param == "f") {
        beyond.f = x;
        own = p.f;
      } else if (b.param == "f_v") {
        beyond.f_v = x;
        own = p.f_v;
      } else if (b.param == "l") {
        beyond.l = x;
        own = p.l;
      } else {
        FAIL() << "unknown boundary axis " << b.param;
      }
      EXPECT_EQ(b.current, own) << "model " << model << " axis " << b.param;
      const Strategy flipped = costmodel::Winner(
          cost, ModelCandidates(model), beyond);
      EXPECT_NE(flipped, report.winner())
          << "model " << model << " axis " << b.param << " boundary "
          << b.boundary;
      EXPECT_GT(b.distance, 0.0);
      EXPECT_GT(b.relative_distance, 0.0);
    }
    // Boundaries are sorted nearest-first by relative distance.
    for (size_t i = 1; i < report.boundaries.size(); ++i) {
      EXPECT_GE(report.boundaries[i].relative_distance,
                report.boundaries[i - 1].relative_distance);
    }
  }
}

TEST(Explain, TextRendersWinnerAndBoundaries) {
  const ExplainReport report =
      BuildExplain(1, Params().WithUpdateProbability(0.3));
  const std::string text = ExplainText(report);
  EXPECT_NE(text.find("<-- winner"), std::string::npos);
  EXPECT_NE(text.find("TOTAL_"), std::string::npos);
}

TEST(Explain, JsonIsParseableAndCarriesTheRanking) {
  const ExplainReport report =
      BuildExplain(2, Params().WithUpdateProbability(0.4));
  common::JsonWriter w;
  WriteExplainJson(&w, report);
  auto doc = common::ParseJson(w.str());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const common::JsonValue* model = doc->Find("model");
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->number, 2.0);
  const common::JsonValue* candidates = doc->Find("candidates");
  ASSERT_NE(candidates, nullptr);
  EXPECT_EQ(candidates->items.size(), ModelCandidates(2).size());
  ASSERT_NE(doc->Find("winner"), nullptr);
  ASSERT_NE(doc->Find("params"), nullptr);
  ASSERT_NE(doc->Find("boundaries"), nullptr);
}

// --- §4's conclusions, as the advisor's picks at the points it names -----

bool Materializes(Strategy s) {
  return s == Strategy::kImmediate || s == Strategy::kDeferred;
}

TEST(Advisor, Model1DefaultsRecommendClustered) {
  const ExplainReport report = BuildExplain(1, Params());
  EXPECT_EQ(report.winner(), Strategy::kQmClustered);
  EXPECT_EQ(report.ranked.size(), 5u);
}

TEST(Advisor, RankingIsSortedAscending) {
  const ExplainReport report = BuildExplain(1, Params());
  for (size_t i = 1; i < report.ranked.size(); ++i) {
    EXPECT_LE(report.ranked[i - 1].cost_ms, report.ranked[i].cost_ms);
  }
}

TEST(Advisor, CostsMatchModelFunctions) {
  // Each ranked cost is the paper's formula for that strategy.
  const Params p;
  for (int model = 1; model <= 3; ++model) {
    for (const ExplainCandidate& c : BuildExplain(model, p).ranked) {
      EXPECT_DOUBLE_EQ(c.cost_ms, ModelCost(model, c.strategy, p))
          << "model " << model << " " << costmodel::StrategyName(c.strategy);
    }
  }
}

TEST(Advisor, Model1LowPRecommendsMaterialization) {
  EXPECT_TRUE(
      Materializes(BuildExplain(1, Params().WithUpdateProbability(0.02))
                       .winner()));
}

TEST(Advisor, Model2DefaultsRecommendMaterialization) {
  const ExplainReport report = BuildExplain(2, Params());
  EXPECT_TRUE(Materializes(report.winner()));
  EXPECT_EQ(report.ranked.size(), 3u);
}

TEST(Advisor, Model2EmpDeptCaseRecommendsQueryModification) {
  Params p;
  p.f = 1.0;
  p.l = 1.0;
  p.f_v = 1.0 / p.N;
  EXPECT_EQ(BuildExplain(2, p.WithUpdateProbability(0.2)).winner(),
            Strategy::kQmLoopJoin);
}

TEST(Advisor, Model3AlmostAlwaysRecommendsMaintenance) {
  for (const double P : {0.1, 0.5, 0.9}) {
    EXPECT_TRUE(Materializes(
        BuildExplain(3, Params().WithUpdateProbability(P)).winner()))
        << "P=" << P;
  }
}

TEST(Advisor, ReportMentionsWinnerAndCosts) {
  const ExplainReport report = BuildExplain(1, Params());
  const std::string text = ExplainText(report);
  EXPECT_NE(text.find("<-- winner"), std::string::npos);
  EXPECT_NE(text.find("clustered"), std::string::npos);
  EXPECT_NE(text.find("deferred"), std::string::npos);
  // Every candidate is named with its cost, the winner included.
  for (const ExplainCandidate& c : report.ranked) {
    EXPECT_NE(text.find(costmodel::StrategyName(c.strategy)),
              std::string::npos);
    char cost[32];
    std::snprintf(cost, sizeof(cost), "%.1f ms/query", c.cost_ms);
    EXPECT_NE(text.find(cost), std::string::npos) << cost;
  }
}

}  // namespace
}  // namespace viewmat::obs
