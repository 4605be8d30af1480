#include "sim/strategy_driver.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/params.h"

namespace viewmat::sim {
namespace {

using costmodel::Strategy;

StrategyDriver::Options DriverOptions(StrategyKind kind, int model) {
  StrategyDriver::Options options;
  options.kind = kind;
  options.model = model;
  options.params = TortureParams(costmodel::Params());
  options.seed = 23;
  return options;
}

std::unique_ptr<StrategyDriver> MustCreate(
    const StrategyDriver::Options& options) {
  auto driver = StrategyDriver::Create(options);
  EXPECT_TRUE(driver.ok()) << driver.status().message();
  return driver.ok() ? std::move(driver).value() : nullptr;
}

/// The aggregate's whole answer: one (group, value) per group.
std::vector<db::Tuple> AggregateAnswer(StrategyDriver* driver) {
  std::vector<db::Tuple> answer;
  const Status st = driver->Query(
      std::numeric_limits<int64_t>::min(), std::numeric_limits<int64_t>::max(),
      [&](const db::Tuple& t, int64_t count) {
        EXPECT_EQ(count, 1);
        answer.push_back(t);
        return true;
      });
  EXPECT_TRUE(st.ok()) << st.message();
  return answer;
}

TEST(StrategyDriverModel3, AllThreeStrategiesAgreeWithDurabilityOff) {
  constexpr int kTxns = 12;
  std::vector<std::vector<db::Tuple>> answers;
  std::vector<db::Tuple> initial;
  for (const StrategyKind kind :
       {StrategyKind::kQueryModification, StrategyKind::kImmediate,
        StrategyKind::kDeferred}) {
    SCOPED_TRACE(StrategyKindName(kind));
    StrategyDriver::Options options = DriverOptions(kind, 3);
    options.durable = false;
    std::unique_ptr<StrategyDriver> driver = MustCreate(options);
    ASSERT_NE(driver, nullptr);
    EXPECT_EQ(driver->recovery(), nullptr);
    initial = AggregateAnswer(driver.get());
    // The same seed draws the same transactions for every strategy; a
    // query every third one makes deferred fold mid-stream.
    for (int i = 0; i < kTxns; ++i) {
      const db::Transaction txn =
          driver->scenario()->NextUpdateTransaction(driver->base());
      ASSERT_TRUE(driver->OnTransaction(txn).ok());
      if (i % 3 == 2) AggregateAnswer(driver.get());
    }
    answers.push_back(AggregateAnswer(driver.get()));
  }
  // Incremental and recomputed sums may round differently.
  const auto value = [](const db::Tuple& t) { return t.at(1).AsDouble(); };
  ASSERT_EQ(answers[0].size(), 1u);
  ASSERT_EQ(initial.size(), 1u);
  EXPECT_NE(value(answers[0][0]), value(initial[0]));  // the txns landed
  for (size_t s = 1; s < answers.size(); ++s) {
    ASSERT_EQ(answers[s].size(), 1u);
    EXPECT_EQ(answers[s][0].at(0), answers[0][0].at(0));  // the group
    const double want = value(answers[0][0]);
    EXPECT_NEAR(value(answers[s][0]), want, 1e-9 * std::abs(want));
  }
}

TEST(StrategyDriverOptions, EachRefusalNamesItsField) {
  const auto refused = [](const StrategyDriver::Options& options,
                          const std::string& field) {
    auto driver = StrategyDriver::Create(options);
    ASSERT_FALSE(driver.ok());
    EXPECT_NE(driver.status().message().find(field), std::string::npos)
        << driver.status().message();
  };
  // Model 3 with durability on: the aggregates do not recover.
  refused(DriverOptions(StrategyKind::kImmediate, 3), "Options::durable");

  // A non-clustered plan outside Model 1's query modification.
  StrategyDriver::Options options = DriverOptions(StrategyKind::kImmediate, 1);
  options.qm_plan = Strategy::kQmUnclustered;
  refused(options, "Options::qm_plan");
  options = DriverOptions(StrategyKind::kQueryModification, 2);
  options.qm_plan = Strategy::kQmSequential;
  refused(options, "Options::qm_plan");
  options = DriverOptions(StrategyKind::kQueryModification, 3);
  options.durable = false;
  options.qm_plan = Strategy::kQmSequential;
  refused(options, "Options::qm_plan");
  // Not a query-modification plan at all.
  options = DriverOptions(StrategyKind::kQueryModification, 1);
  options.qm_plan = Strategy::kDeferred;
  refused(options, "Options::qm_plan");
}

TEST(StrategyDriverOptions, UnclusteredQueryModificationReadsAHeap) {
  StrategyDriver::Options options =
      DriverOptions(StrategyKind::kQueryModification, 1);
  options.qm_plan = Strategy::kQmUnclustered;
  std::unique_ptr<StrategyDriver> heap = MustCreate(options);
  ASSERT_NE(heap, nullptr);
  EXPECT_EQ(heap->base()->method(), db::AccessMethod::kHeap);

  options.qm_plan = Strategy::kQmClustered;
  std::unique_ptr<StrategyDriver> clustered = MustCreate(options);
  ASSERT_NE(clustered, nullptr);
  EXPECT_EQ(clustered->base()->method(), db::AccessMethod::kClusteredBTree);
}

}  // namespace
}  // namespace viewmat::sim
