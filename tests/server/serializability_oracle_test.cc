#include "server/oracle.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace viewmat::server {
namespace {

// The nine model × strategy combinations the server must serve: model 1
// supports every strategy; the two-relation join view (model 2) supports
// the three strategies with join maintenance.
std::vector<std::pair<int, sim::StrategyKind>> AllCombos() {
  std::vector<std::pair<int, sim::StrategyKind>> combos;
  for (const sim::StrategyKind kind : sim::kAllStrategyKinds) {
    combos.emplace_back(1, kind);
  }
  combos.emplace_back(2, sim::StrategyKind::kQueryModification);
  combos.emplace_back(2, sim::StrategyKind::kImmediate);
  combos.emplace_back(2, sim::StrategyKind::kDeferred);
  return combos;
}

ViewServer::Options ComboOptions(int model, sim::StrategyKind kind) {
  ViewServer::Options options;
  options.driver.kind = kind;
  options.driver.model = model;
  options.driver.params = sim::TortureParams(costmodel::Params());
  options.driver.seed = 7;
  options.schedule.clients = 4;
  options.schedule.ops_per_client = 5;
  options.schedule.update_fraction = 0.55;
  options.schedule.abort_fraction = 0.15;
  options.schedule.seed = 99;
  return options;
}

ViewServer::Result MustRun(const ViewServer::Options& options) {
  auto server = ViewServer::Create(options);
  EXPECT_TRUE(server.ok()) << server.status().message();
  auto result = (*server)->Run();
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *result;
}

TEST(SerializabilityOracle, AllNineCombosAtOneFourAndEightWorkers) {
  // Each combo is serializable, and two fresh runs of the same options
  // agree op for op: the outcome is a function of the options alone.
  for (const auto& [model, kind] : AllCombos()) {
    const ViewServer::Options options = ComboOptions(model, kind);
    std::string detail;
    const Status st = CheckSerializability(options, &detail);
    EXPECT_TRUE(st.ok()) << "model " << model << " strategy "
                         << sim::StrategyKindName(kind) << ": "
                         << st.message();
    EXPECT_NE(detail.find("serializable:"), std::string::npos);
    const ViewServer::Result a = MustRun(options);
    const ViewServer::Result b = MustRun(options);
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (size_t i = 0; i < a.ops.size(); ++i) {
      EXPECT_EQ(a.ops[i].status, b.ops[i].status) << "op " << i;
      EXPECT_TRUE(a.ops[i].cost == b.ops[i].cost) << "op " << i;
    }
    EXPECT_EQ(a.state_digest, b.state_digest);
  }
}

TEST(SerializabilityOracle, AllNineCombosWithGroupCommitOn) {
  // Group commit batches WAL syncs but releases commit LSNs in
  // schedule-sequence order — so every combo stays serializable, exactly
  // as without batching.
  for (const auto& [model, kind] : AllCombos()) {
    ViewServer::Options options = ComboOptions(model, kind);
    options.driver.group_commit = true;
    options.commit_batch = 3;
    std::string detail;
    const Status st = CheckSerializability(options, &detail);
    EXPECT_TRUE(st.ok()) << "model " << model << " strategy "
                         << sim::StrategyKindName(kind)
                         << " (group commit): " << st.message();
    EXPECT_NE(detail.find("serializable:"), std::string::npos);
  }
}

TEST(SerializabilityOracle, GroupCommitSurvivesScriptedCrashes) {
  // A crash can land between a batch's WAL appends and its single sync —
  // the unsynced tail must be rejected by recovery and reconciliation,
  // and the surviving prefix must still replay serially.
  for (const sim::StrategyKind kind :
       {sim::StrategyKind::kQueryModification, sim::StrategyKind::kImmediate,
        sim::StrategyKind::kDeferred}) {
    for (const uint64_t crash_at : {20u, 60u, 120u}) {
      ViewServer::Options options = ComboOptions(1, kind);
      options.driver.group_commit = true;
      options.commit_batch = 4;
      options.crash_at_disk_op = crash_at;
      std::string detail;
      const Status st = CheckSerializability(options, &detail);
      EXPECT_TRUE(st.ok()) << sim::StrategyKindName(kind) << " crash@"
                           << crash_at << " (group commit): "
                           << st.message();
    }
  }
}

TEST(SerializabilityOracle, HighContentionWriteHeavySchedules) {
  // Two clients hammering updates over the same small key space maximizes
  // write-write interval overlap — the most logical conflicts per op.
  for (const sim::StrategyKind kind :
       {sim::StrategyKind::kImmediate, sim::StrategyKind::kDeferred}) {
    ViewServer::Options options = ComboOptions(1, kind);
    options.schedule.clients = 2;
    options.schedule.ops_per_client = 10;
    options.schedule.update_fraction = 0.9;
    const Status st = CheckSerializability(options, nullptr);
    EXPECT_TRUE(st.ok()) << sim::StrategyKindName(kind) << ": "
                         << st.message();
  }
}

TEST(SerializabilityOracle, SurvivesScriptedMidScheduleCrashes) {
  // Crash at several disk-op offsets: whatever prefix committed must still
  // be serializable after recovery, with no stale or corrupt query
  // answers.
  for (const sim::StrategyKind kind :
       {sim::StrategyKind::kQueryModification, sim::StrategyKind::kImmediate,
        sim::StrategyKind::kDeferred}) {
    for (const uint64_t crash_at : {20u, 60u, 120u}) {
      ViewServer::Options options = ComboOptions(1, kind);
      options.crash_at_disk_op = crash_at;
      std::string detail;
      const Status st = CheckSerializability(options, &detail);
      EXPECT_TRUE(st.ok()) << sim::StrategyKindName(kind) << " crash@"
                           << crash_at << ": " << st.message();
    }
  }
}

TEST(SerializabilityOracle, CrashedModelTwoRunRecovers) {
  ViewServer::Options options =
      ComboOptions(2, sim::StrategyKind::kImmediate);
  options.crash_at_disk_op = 80;
  const Status st = CheckSerializability(options, nullptr);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(SerialReplayDigest, RejectsMismatchedOpResults) {
  ViewServer::Options options =
      ComboOptions(1, sim::StrategyKind::kDeferred);
  auto server = ViewServer::Create(options);
  ASSERT_TRUE(server.ok());
  const std::vector<ViewServer::OpResult> wrong_size(3);
  EXPECT_FALSE(
      SerialReplayDigest(options, (*server)->schedule(), wrong_size).ok());
}

}  // namespace
}  // namespace viewmat::server
