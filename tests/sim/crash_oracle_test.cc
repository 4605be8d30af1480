#include "sim/crash_oracle.h"

#include <gtest/gtest.h>

#include <string>

namespace viewmat::sim {
namespace {

/// The tentpole acceptance bar: for EVERY disk operation a small seeded
/// workload performs, crashing exactly there and running recovery must
/// land the system in a committed-prefix-consistent state — zero
/// divergences (base ≠ committed prefix), zero stale reads (OK query with
/// a wrong answer), zero corrupt runs (non-convergence or a converged
/// answer that disagrees with the oracle / from-scratch recompute).

CrashOracleResult RunExhaustive(StrategyKind kind, int model,
                                size_t checkpoint_every = 0) {
  CrashOracleOptions options;
  options.kind = kind;
  options.model = model;
  options.seed = 97;
  options.ops_per_run = 12;
  options.query_every = 4;
  options.checkpoint_every = checkpoint_every;
  const auto result = RunCrashOracle(options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  if (!result.ok()) return CrashOracleResult();
  // The window is real and the crashes actually fired.
  EXPECT_GT(result->crash_points, 0u) << result->ToString();
  EXPECT_GT(result->crashes_fired, 0u) << result->ToString();
  EXPECT_GT(result->prefix_checks, 0u) << result->ToString();
  // The unacceptable outcomes.
  EXPECT_EQ(result->divergences, 0) << result->ToString();
  EXPECT_EQ(result->stale_reads, 0) << result->ToString();
  EXPECT_EQ(result->corrupt_runs, 0) << result->ToString();
  return *result;
}

TEST(CrashOracleTest, QueryModificationSurvivesEveryCrashPoint) {
  RunExhaustive(StrategyKind::kQueryModification, 1);
}

TEST(CrashOracleTest, ImmediateSurvivesEveryCrashPoint) {
  RunExhaustive(StrategyKind::kImmediate, 1);
}

TEST(CrashOracleTest, DeferredSurvivesEveryCrashPoint) {
  const CrashOracleResult result =
      RunExhaustive(StrategyKind::kDeferred, 1);
  // The journaled protocol actually rolled forward somewhere in the sweep.
  EXPECT_GT(result.recoveries, 0u);
}

TEST(CrashOracleTest, SnapshotSurvivesEveryCrashPoint) {
  RunExhaustive(StrategyKind::kSnapshot, 1);
}

TEST(CrashOracleTest, RecomputeOnChangeSurvivesEveryCrashPoint) {
  RunExhaustive(StrategyKind::kRecomputeOnChange, 1);
}

TEST(CrashOracleTest, HybridSurvivesEveryCrashPoint) {
  RunExhaustive(StrategyKind::kHybrid, 1);
}

TEST(CrashOracleTest, JoinViewSurvivesEveryCrashPoint) {
  for (const StrategyKind kind :
       {StrategyKind::kQueryModification, StrategyKind::kImmediate,
        StrategyKind::kDeferred}) {
    SCOPED_TRACE(StrategyKindName(kind));
    RunExhaustive(kind, 2);
  }
}

TEST(CrashOracleTest, TalliesArePinnedForEveryCombo) {
  // The crash oracle's sameness check: its tallies depend on the exact
  // disk-op sequence of workload, recovery policy, and checks, so a
  // refactor of any of them that moves one number shows up here. Values
  // recorded with seed 97, 12 ops per run, a query every 4th op. The AD
  // log's one sync per commit gives the journaled combos (deferred, hybrid)
  // fewer disk ops, hence fewer crash points, than a sync per intent did.
  struct Pin {
    StrategyKind kind;
    int model;
    uint64_t crash_points, crashes_fired, recoveries, prefix_checks;
  };
  const Pin pins[] = {
      {StrategyKind::kQueryModification, 1, 78, 78, 119, 41},
      {StrategyKind::kImmediate, 1, 84, 84, 125, 41},
      {StrategyKind::kDeferred, 1, 147, 147, 447, 113},
      {StrategyKind::kSnapshot, 1, 84, 84, 125, 41},
      {StrategyKind::kRecomputeOnChange, 1, 84, 84, 125, 41},
      {StrategyKind::kHybrid, 1, 127, 127, 242, 41},
      {StrategyKind::kQueryModification, 2, 78, 78, 119, 41},
      {StrategyKind::kImmediate, 2, 87, 87, 128, 41},
      {StrategyKind::kDeferred, 2, 152, 152, 467, 118},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(StrategyKindName(pin.kind)) + "/m" +
                 std::to_string(pin.model));
    const CrashOracleResult result = RunExhaustive(pin.kind, pin.model);
    EXPECT_EQ(result.crash_points, pin.crash_points);
    EXPECT_EQ(result.crashes_fired, pin.crashes_fired);
    EXPECT_EQ(result.recoveries, pin.recoveries);
    EXPECT_EQ(result.prefix_checks, pin.prefix_checks);
  }
}

TEST(CrashOracleTest, CheckpointingChangesNothingObservable) {
  // Aggressive checkpointing (truncate-the-log every 2 commits) must keep
  // every crash point recoverable: the checkpoint record carries the
  // committed high-water mark and pages are flushed before the truncate.
  RunExhaustive(StrategyKind::kImmediate, 1, /*checkpoint_every=*/2);
}

TEST(CrashOracleTest, OracleIsDeterministicForAGivenSeed) {
  CrashOracleOptions options;
  options.kind = StrategyKind::kImmediate;
  options.seed = 41;
  options.ops_per_run = 8;
  const auto a = RunCrashOracle(options);
  const auto b = RunCrashOracle(options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->crash_points, b->crash_points);
  EXPECT_EQ(a->crashes_fired, b->crashes_fired);
  EXPECT_EQ(a->recoveries, b->recoveries);
  EXPECT_EQ(a->rejected_txns, b->rejected_txns);
  EXPECT_EQ(a->failed_queries, b->failed_queries);
  EXPECT_EQ(a->prefix_checks, b->prefix_checks);
}

TEST(CrashOracleTest, RejectsBadOptions) {
  CrashOracleOptions options;
  options.ops_per_run = 0;
  EXPECT_FALSE(RunCrashOracle(options).ok());
  options.ops_per_run = 8;
  options.kind = StrategyKind::kSnapshot;
  options.model = 2;  // snapshot is select-project only
  EXPECT_FALSE(RunCrashOracle(options).ok());
}

}  // namespace
}  // namespace viewmat::sim
