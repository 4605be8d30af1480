#include "net/chaos_oracle.h"

#include <gtest/gtest.h>

namespace viewmat::net {
namespace {

using sim::StrategyKind;

/// The tentpole acceptance bar: under EVERY fault profile — drops,
/// duplicates, reorders, delays, partitions, and crashes during
/// partitions — the sessioned wire protocol must preserve exactly-once
/// commits: no acked commit lost, none applied twice, the final state
/// equal to a serial replay of the acked ledger, and every acked query
/// answer exact at the journal prefix it was served at.

ChaosOracleResult RunCell(ChaosProfile profile, StrategyKind kind,
                          int model = 1, int runs = 4) {
  ChaosOracleOptions options;
  options.profile = profile;
  options.kind = kind;
  options.model = model;
  options.seed = 101;
  options.runs = runs;
  const auto result = RunChaosOracle(options);
  EXPECT_TRUE(result.ok()) << result.status().message();
  if (!result.ok()) return ChaosOracleResult();
  EXPECT_EQ(result->runs, static_cast<uint64_t>(runs));
  EXPECT_GT(result->acked_commits, 0u) << result->ToString();
  EXPECT_GT(result->acked_queries, 0u) << result->ToString();
  EXPECT_TRUE(result->Clean())
      << ChaosProfileName(profile) << "/" << sim::StrategyKindName(kind)
      << "\n" << result->ToString();
  return *result;
}

TEST(ChaosOracleTest, CleanProfileIsFlawless) {
  const ChaosOracleResult result =
      RunCell(ChaosProfile::kClean, StrategyKind::kDeferred);
  // No injected faults and no crashes — any retries are pure service-time
  // timeouts, and the dedup table must make them invisible.
  EXPECT_EQ(result.faults_injected, 0u) << result.ToString();
  EXPECT_EQ(result.server_crashes, 0u) << result.ToString();
}

TEST(ChaosOracleTest, DropsForceRetriesButNeverDoubleApply) {
  const ChaosOracleResult result =
      RunCell(ChaosProfile::kDrop, StrategyKind::kDeferred);
  // The profile actually bit: clients had to retry.
  EXPECT_GT(result.client_retries, 0u) << result.ToString();
}

TEST(ChaosOracleTest, DuplicatesAreAbsorbedByTheDedupTable) {
  const ChaosOracleResult result =
      RunCell(ChaosProfile::kDuplicate, StrategyKind::kImmediate);
  EXPECT_GT(result.redelivered_hits, 0u) << result.ToString();
}

TEST(ChaosOracleTest, ReordersCannotBreakTheSessionOrder) {
  RunCell(ChaosProfile::kReorder, StrategyKind::kDeferred);
}

TEST(ChaosOracleTest, DelaysOnlyCostTime) {
  RunCell(ChaosProfile::kDelay, StrategyKind::kImmediate);
}

TEST(ChaosOracleTest, PartitionsDegradeReadsButKeepTheLedgerExact) {
  const ChaosOracleResult result =
      RunCell(ChaosProfile::kPartition, StrategyKind::kDeferred);
  // The refresh-path partition window was observed by at least one run.
  EXPECT_GT(result.degraded_query_acks, 0u) << result.ToString();
}

TEST(ChaosOracleTest, CrashDuringPartitionCannotForgetAnAckedCommit) {
  const ChaosOracleResult result =
      RunCell(ChaosProfile::kCrashPartition, StrategyKind::kDeferred);
  EXPECT_GT(result.server_crashes, 0u) << result.ToString();
  EXPECT_GT(result.server_recoveries, 0u) << result.ToString();
}

TEST(ChaosOracleTest, CrashPartitionHoldsForEverySelectProjectStrategy) {
  for (const auto kind :
       {StrategyKind::kQueryModification, StrategyKind::kImmediate,
        StrategyKind::kSnapshot, StrategyKind::kRecomputeOnChange,
        StrategyKind::kHybrid}) {
    RunCell(ChaosProfile::kCrashPartition, kind, 1, /*runs=*/2);
  }
}

TEST(ChaosOracleTest, JoinViewsSurviveChaosToo) {
  for (const auto kind : {StrategyKind::kQueryModification,
                          StrategyKind::kImmediate, StrategyKind::kDeferred}) {
    RunCell(ChaosProfile::kCrashPartition, kind, 2, /*runs=*/2);
  }
}

TEST(ChaosOracleTest, ResultIsIdenticalAtAnyWorkerCount) {
  // The oracle runs on one thread; two fresh runs of the same options must
  // agree exactly.
  ChaosOracleOptions options;
  options.profile = ChaosProfile::kDrop;
  options.kind = StrategyKind::kDeferred;
  options.seed = 7;
  options.runs = 4;
  const auto first = RunChaosOracle(options);
  const auto second = RunChaosOracle(options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->ToString(), second->ToString());
}

TEST(ChaosOracleTest, RejectsBadOptions) {
  ChaosOracleOptions options;
  options.runs = 0;
  EXPECT_FALSE(RunChaosOracle(options).ok());
  options.runs = 2;
  options.clients = 0;
  EXPECT_FALSE(RunChaosOracle(options).ok());
  options.clients = 2;
  options.ops_per_client = 0;
  EXPECT_FALSE(RunChaosOracle(options).ok());
  options.ops_per_client = 4;
  options.kind = StrategyKind::kSnapshot;
  options.model = 2;  // snapshot is select-project only
  EXPECT_FALSE(RunChaosOracle(options).ok());
}

}  // namespace
}  // namespace viewmat::net
