#include "server/view_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>

#include "common/random.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/oracle.h"

namespace viewmat::server {
namespace {

ViewServer::Options SmallOptions(sim::StrategyKind kind, int model) {
  ViewServer::Options options;
  options.driver.kind = kind;
  options.driver.model = model;
  options.driver.params = sim::TortureParams(costmodel::Params());
  options.driver.seed = 41;
  options.schedule.clients = 3;
  options.schedule.ops_per_client = 4;
  options.schedule.update_fraction = 0.6;
  options.schedule.abort_fraction = 0.2;
  options.schedule.seed = 1234;
  return options;
}

ViewServer::Result MustRun(const ViewServer::Options& options) {
  auto server = ViewServer::Create(options);
  EXPECT_TRUE(server.ok()) << server.status().message();
  auto result = (*server)->Run();
  EXPECT_TRUE(result.ok()) << result.status().message();
  return *result;
}

TEST(ViewServerOptions, EachRejectionNamesItsField) {
  ViewServer::Options options = SmallOptions(sim::StrategyKind::kDeferred, 1);
  options.schedule.clients = 0;
  auto r = ViewServer::Create(options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Options::schedule.clients"),
            std::string::npos)
      << r.status().message();

  options = SmallOptions(sim::StrategyKind::kDeferred, 1);
  options.schedule.ops_per_client = 0;
  r = ViewServer::Create(options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Options::schedule.ops_per_client"),
            std::string::npos)
      << r.status().message();

  options = SmallOptions(sim::StrategyKind::kDeferred, 1);
  options.driver.group_commit = true;
  options.commit_batch = 0;
  r = ViewServer::Create(options);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Options::commit_batch"),
            std::string::npos)
      << r.status().message();

  // commit_batch = 0 without group commit is unused and therefore legal.
  options = SmallOptions(sim::StrategyKind::kDeferred, 1);
  options.commit_batch = 0;
  EXPECT_TRUE(ViewServer::Create(options).ok());
}

TEST(Schedule, IsDeterministicAndClientLocal) {
  auto server = ViewServer::Create(
      SmallOptions(sim::StrategyKind::kDeferred, 1));
  ASSERT_TRUE(server.ok());
  auto again = ViewServer::Create(
      SmallOptions(sim::StrategyKind::kImmediate, 1));
  ASSERT_TRUE(again.ok());
  // Same schedule seed → same interleaving, victims, ranges, and lock
  // sets, regardless of strategy.
  const Schedule& a = (*server)->schedule();
  const Schedule& b = (*again)->schedule();
  ASSERT_EQ(a.ops.size(), b.ops.size());
  ASSERT_EQ(a.ops.size(), 12u);
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].client, b.ops[i].client);
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind);
    EXPECT_EQ(a.ops[i].victims, b.ops[i].victims);
    EXPECT_EQ(a.ops[i].voluntary_abort, b.ops[i].voluntary_abort);
    EXPECT_EQ(a.ops[i].lo, b.ops[i].lo);
    EXPECT_EQ(a.ops[i].hi, b.ops[i].hi);
  }
}

TEST(Schedule, ReaderLocksAreClippedToTheScreen) {
  auto server = ViewServer::Create(
      SmallOptions(sim::StrategyKind::kQueryModification, 1));
  ASSERT_TRUE(server.ok());
  const int64_t f_cut = (*server)->driver()->scenario()->ViewTupleCount();
  for (const ScheduledOp& op : (*server)->schedule().ops) {
    if (op.kind != OpKind::kQuery) continue;
    for (const LockRequest& req : op.locks) {
      if (req.relation_id != kLockRelBase) continue;
      EXPECT_EQ(req.mode, LockMode::kShared);
      // No reader interval may reach past the view predicate's boundary.
      for (const db::Interval& iv : req.keys.intervals()) {
        ASSERT_TRUE(iv.hi.has_value());
        EXPECT_LT(*iv.hi, f_cut);
      }
    }
  }
}

db::IntervalSet Keys(int64_t lo, int64_t hi) {
  return db::IntervalSet(db::Interval{lo, hi});
}

LockSet One(uint32_t rel, LockMode mode, int64_t lo, int64_t hi) {
  return {LockRequest{rel, mode, Keys(lo, hi)}};
}

TEST(LockCompatibility, SharedSharedNeverConflicts) {
  EXPECT_FALSE(Conflicts(One(0, LockMode::kShared, 0, 10),
                         One(0, LockMode::kShared, 0, 10)));
}

TEST(LockCompatibility, SharedExclusiveConflictsWhenIntervalsIntersect) {
  EXPECT_TRUE(Conflicts(One(0, LockMode::kShared, 0, 10),
                        One(0, LockMode::kExclusive, 10, 20)));
  EXPECT_TRUE(Conflicts(One(0, LockMode::kExclusive, 5, 5),
                        One(0, LockMode::kShared, 0, 10)));
}

TEST(LockCompatibility, ExclusiveExclusiveConflictsWhenIntervalsIntersect) {
  EXPECT_TRUE(Conflicts(One(0, LockMode::kExclusive, 3, 7),
                        One(0, LockMode::kExclusive, 7, 9)));
}

TEST(LockCompatibility, DisjointIntervalsNeverConflict) {
  EXPECT_FALSE(Conflicts(One(0, LockMode::kExclusive, 0, 4),
                         One(0, LockMode::kExclusive, 5, 9)));
  EXPECT_FALSE(Conflicts(One(0, LockMode::kShared, 0, 4),
                         One(0, LockMode::kExclusive, 5, 9)));
}

TEST(LockCompatibility, DifferentRelationsNeverConflict) {
  EXPECT_TRUE(Conflicts(One(0, LockMode::kExclusive, 0, 10),
                        One(0, LockMode::kExclusive, 0, 10)));
  EXPECT_FALSE(Conflicts(One(0, LockMode::kExclusive, 0, 10),
                         One(1, LockMode::kExclusive, 0, 10)));
}

TEST(LockCompatibility, TLockScreeningCutsReaderWriterConflicts) {
  // The t-lock derivation in miniature: a view screens keys < 8, so a
  // reader locks (range ∩ screen). A writer updating key 9 — outside the
  // screen — cannot conflict with any view reader, even one whose raw
  // query range covered key 9.
  const db::IntervalSet screen = Keys(0, 7);
  const db::IntervalSet range = Keys(5, 12);
  const LockSet reader = {LockRequest{
      0, LockMode::kShared, db::IntervalSet::Intersect(screen, range)}};
  EXPECT_FALSE(Conflicts(reader, One(0, LockMode::kExclusive, 9, 9)));
  EXPECT_TRUE(Conflicts(reader, One(0, LockMode::kExclusive, 7, 7)));
}

TEST(LockCompatibility, EmptyIntervalSetLocksNothing) {
  const LockSet empty = {
      LockRequest{0, LockMode::kExclusive, db::IntervalSet::Empty()}};
  EXPECT_FALSE(Conflicts(empty, One(0, LockMode::kExclusive, 0, 100)));
}

TEST(ViewServer, OutcomesAndDigestAreWorkerCountInvariant) {
  // Two fresh runs of the same options agree op for op.
  const ViewServer::Result first =
      MustRun(SmallOptions(sim::StrategyKind::kDeferred, 1));
  const ViewServer::Result second =
      MustRun(SmallOptions(sim::StrategyKind::kDeferred, 1));
  ASSERT_EQ(first.ops.size(), second.ops.size());
  for (size_t i = 0; i < first.ops.size(); ++i) {
    EXPECT_EQ(first.ops[i].status, second.ops[i].status) << "op " << i;
    EXPECT_TRUE(first.ops[i].cost == second.ops[i].cost) << "op " << i;
    EXPECT_DOUBLE_EQ(first.ops[i].commit_ms, second.ops[i].commit_ms);
    EXPECT_DOUBLE_EQ(first.ops[i].logical_wait_ms,
                     second.ops[i].logical_wait_ms);
  }
  EXPECT_EQ(first.state_digest, second.state_digest);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.aborted, second.aborted);
  EXPECT_DOUBLE_EQ(first.model_ms, second.model_ms);
  EXPECT_DOUBLE_EQ(first.logical_wait_ms, second.logical_wait_ms);
  EXPECT_EQ(first.logical_conflicts, second.logical_conflicts);
}

TEST(ViewServer, HealthyRunsAnswerEveryQueryExactly) {
  const ViewServer::Result result =
      MustRun(SmallOptions(sim::StrategyKind::kImmediate, 1));
  EXPECT_EQ(result.queries_stale, 0u);
  EXPECT_EQ(result.queries_failed, 0u);
  EXPECT_EQ(result.skipped, 0u);
  EXPECT_FALSE(result.crashed);
  EXPECT_EQ(result.committed + result.aborted + result.queries_exact,
            result.ops.size());
  EXPECT_GT(result.committed, 0u);
  EXPECT_GT(result.queries_exact, 0u);
  EXPECT_GT(result.throughput_tps, 0.0);
}

TEST(ViewServer, PerTxnCostContextsPartitionTheModelTime) {
  // Per-op cost deltas partition the tracker's schedule-time totals
  // exactly.
  const ViewServer::Result result =
      MustRun(SmallOptions(sim::StrategyKind::kDeferred, 1));
  storage::CostTracker pricing;  // same default unit costs as the driver
  EXPECT_DOUBLE_EQ(pricing.Ms(result.total_cost), result.model_ms);
  // Aborted transactions never touch storage: their contexts are empty.
  for (size_t i = 0; i < result.ops.size(); ++i) {
    if (result.ops[i].status == OpStatus::kAborted) {
      EXPECT_TRUE(result.ops[i].cost.empty()) << "op " << i;
    }
  }
}

TEST(ViewServer, AllAbortScheduleLeavesStatePristine) {
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kImmediate, 1);
  options.schedule.update_fraction = 1.0;
  options.schedule.abort_fraction = 1.0;
  const ViewServer::Result aborted = MustRun(options);
  EXPECT_EQ(aborted.committed, 0u);
  EXPECT_EQ(aborted.aborted, aborted.ops.size());

  // A schedule with no ops at all must land on the same digest: the
  // aborts' undo really did keep every net change out of the base.
  options.schedule.update_fraction = 0.0;
  options.schedule.abort_fraction = 0.0;
  const ViewServer::Result noop = MustRun(options);
  EXPECT_EQ(aborted.state_digest, noop.state_digest);
}

TEST(ViewServer, EmitsSpansAndMetrics) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kDeferred, 1);
  options.metrics = &metrics;
  options.tracer = &tracer;
  auto server = ViewServer::Create(options);
  ASSERT_TRUE(server.ok()) << server.status().message();
  auto run = (*server)->Run();
  ASSERT_TRUE(run.ok()) << run.status().message();
  const ViewServer::Result& result = *run;
  const storage::CostTracker& tracker = *(*server)->driver()->tracker();
  // One server.txn / server.query root span per executed op, on the model
  // clock: each starts where the previous op retired, ends at its own
  // commit stamp, and so lasts exactly its op's model cost.
  size_t roots = 0;
  double previous_end = 0.0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.name != "server.txn" && span.name != "server.query") continue;
    ASSERT_LT(roots, result.ops.size());
    const ViewServer::OpResult& op = result.ops[roots++];
    EXPECT_EQ(span.parent, 0u);
    EXPECT_EQ(span.begin_ms, previous_end);
    EXPECT_EQ(span.end_ms, op.commit_ms);
    EXPECT_EQ(span.end_ms - span.begin_ms, tracker.Ms(op.cost));
    previous_end = span.end_ms;
  }
  EXPECT_EQ(roots, result.ops.size());
  EXPECT_EQ(previous_end, result.model_ms);
  EXPECT_GT(result.model_ms, 0.0);
  EXPECT_GE(metrics.counter_count(), 8u);
  EXPECT_EQ(metrics.histogram_count(), 1u);
}

TEST(ViewServer, ModelTwoJoinViewServes) {
  const ViewServer::Result result =
      MustRun(SmallOptions(sim::StrategyKind::kQueryModification, 2));
  EXPECT_EQ(result.queries_stale, 0u);
  EXPECT_EQ(result.queries_failed, 0u);
  EXPECT_GT(result.queries_exact, 0u);
}

TEST(ViewServer, CrashMidScheduleRecoversPrefixConsistent) {
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kImmediate, 1);
  options.schedule.ops_per_client = 6;
  options.crash_at_disk_op = 40;  // lands inside the schedule
  const ViewServer::Result result = MustRun(options);
  EXPECT_TRUE(result.crashed);
  EXPECT_GT(result.skipped, 0u);
  EXPECT_EQ(result.queries_stale, 0u);
  // The recovered state must equal the serial order of what committed.
  std::string detail;
  const Status st = CheckSerializability(options, &detail);
  EXPECT_TRUE(st.ok()) << st.message();
}

TEST(Schedule, AnalyzeCountsIntersectingLockSetsInTheWindow) {
  // Hand-built three-op schedule: two writers on key 5 from different
  // clients, then a reader whose S range covers it. Window = clients = 2,
  // so each op sees exactly its immediate predecessor.
  const auto write5 = [](uint64_t seq, uint32_t client) {
    ScheduledOp op;
    op.seq = seq;
    op.client = client;
    op.kind = OpKind::kUpdate;
    op.victims = {{5, 1.0}};
    op.locks = {LockRequest{kLockRelBase, LockMode::kExclusive,
                            db::IntervalSet(db::Interval{5, 5})}};
    return op;
  };
  Schedule schedule;
  schedule.options.clients = 2;
  schedule.ops.push_back(write5(0, 0));
  schedule.ops.push_back(write5(1, 1));
  ScheduledOp reader;
  reader.seq = 2;
  reader.client = 0;
  reader.kind = OpKind::kQuery;
  reader.locks = {LockRequest{kLockRelBase, LockMode::kShared,
                              db::IntervalSet(db::Interval{0, 10})}};
  schedule.ops.push_back(reader);

  EXPECT_EQ(AnalyzeSchedule(&schedule), 2u);
  EXPECT_EQ(schedule.ops[1].conflicts_ww, 1u);
  EXPECT_EQ(schedule.ops[1].conflict_preds, std::vector<uint32_t>{0});
  EXPECT_EQ(schedule.ops[2].conflicts_rw, 1u);
  EXPECT_EQ(schedule.ops[2].conflict_preds, std::vector<uint32_t>{1});
}

TEST(ViewServer, LogicalConflictsComeFromLockIntersections) {
  // A 2-client all-writer schedule, seed pinned to one whose adjacent
  // cross-client write sets provably intersect (3 ww edges).
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kImmediate, 1);
  options.schedule.clients = 2;
  options.schedule.ops_per_client = 8;
  options.schedule.update_fraction = 1.0;
  options.schedule.abort_fraction = 0.0;
  options.schedule.seed = 6;
  const ViewServer::Result result = MustRun(options);
  EXPECT_EQ(result.logical_conflicts, 3u);
  EXPECT_EQ(result.conflicts_rw, 0u);  // no readers in this schedule
  EXPECT_EQ(result.logical_conflicts, result.conflicts_ww);
  EXPECT_GT(result.logical_wait_ms, 0.0);
}

TEST(ViewServer, ContentionProfilesKeepOutcomesWorkerCountInvariant) {
  // Whatever the contention geometry, two fresh runs of the same options
  // agree op for op.
  for (const ContentionProfile profile :
       {ContentionProfile::kDisjoint, ContentionProfile::kHotRange,
        ContentionProfile::kUniform}) {
    ViewServer::Options base =
        SmallOptions(sim::StrategyKind::kDeferred, 1);
    base.schedule.contention = profile;
    base.driver.group_commit = true;
    base.commit_batch = 3;
    const ViewServer::Result first = MustRun(base);
    const ViewServer::Result second = MustRun(base);
    ASSERT_EQ(first.ops.size(), second.ops.size());
    for (size_t i = 0; i < first.ops.size(); ++i) {
      EXPECT_EQ(first.ops[i].status, second.ops[i].status)
          << ContentionProfileName(profile) << " op " << i;
      EXPECT_TRUE(first.ops[i].cost == second.ops[i].cost)
          << ContentionProfileName(profile) << " op " << i;
      EXPECT_DOUBLE_EQ(first.ops[i].commit_ms, second.ops[i].commit_ms);
    }
    EXPECT_EQ(first.state_digest, second.state_digest)
        << ContentionProfileName(profile);
    EXPECT_EQ(first.commit_batches, second.commit_batches);
    EXPECT_DOUBLE_EQ(first.model_ms, second.model_ms);
  }
}

TEST(ViewServer, UniformProfileReproducesTheHistoricalSchedule) {
  // kUniform must draw the exact pre-profile RNG stream: old seeds keep
  // their schedules byte-for-byte, so committed baselines stay valid.
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kDeferred, 1);
  ASSERT_EQ(options.schedule.contention, ContentionProfile::kUniform);
  const ViewServer::Result result = MustRun(options);
  EXPECT_GT(result.committed, 0u);  // same seed 1234 schedule as ever
}

TEST(ViewServer, DisjointProfilePartitionsClientsOntoDisjointLockSets) {
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kImmediate, 1);
  options.schedule.clients = 4;
  options.schedule.ops_per_client = 6;
  options.schedule.contention = ContentionProfile::kDisjoint;
  auto server = ViewServer::Create(options);
  ASSERT_TRUE(server.ok());
  const Schedule& schedule = (*server)->schedule();
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    for (size_t j = i + 1; j < schedule.ops.size(); ++j) {
      const ScheduledOp& a = schedule.ops[i];
      const ScheduledOp& b = schedule.ops[j];
      if (a.client == b.client) continue;
      EXPECT_FALSE(Conflicts(a.locks, b.locks))
          << "ops " << i << " (client " << a.client << ") and " << j
          << " (client " << b.client << ") intersect";
    }
  }
  const auto result = (*server)->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->logical_conflicts, 0u);
}

TEST(ViewServer, HotRangeProfileConfinesClientsToThePrefix) {
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kImmediate, 1);
  options.schedule.contention = ContentionProfile::kHotRange;
  auto server = ViewServer::Create(options);
  ASSERT_TRUE(server.ok());
  const int64_t n = (*server)->driver()->scenario()->n();
  const int64_t prefix = std::max<int64_t>(1, n / 8);
  for (const ScheduledOp& op : (*server)->schedule().ops) {
    if (op.kind == OpKind::kUpdate) {
      for (const auto& [key, value] : op.victims) {
        EXPECT_GE(key, 0);
        EXPECT_LT(key, prefix);
      }
    } else {
      EXPECT_GE(op.lo, 0);
      EXPECT_LT(op.lo, prefix);
    }
  }
}

TEST(ViewServer, GroupCommitBatchesRetirementSyncs) {
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kDeferred, 1);
  options.schedule.clients = 4;
  options.schedule.ops_per_client = 8;
  options.schedule.update_fraction = 0.8;
  options.driver.group_commit = true;
  options.commit_batch = 4;
  const ViewServer::Result result = MustRun(options);
  ASSERT_GT(result.committed, 4u);
  EXPECT_GT(result.commit_batches, 0u);
  // Batching must actually fold commits together: strictly fewer batches
  // than committed updates.
  EXPECT_LT(result.commit_batches, result.committed);
  EXPECT_EQ(result.queries_stale, 0u);
  EXPECT_EQ(result.queries_failed, 0u);
}

TEST(ViewServer, GroupCommitCrashReconcilesTheUnsyncedTail) {
  // Crash with batches in flight: recovery may only keep transactions
  // whose batch sync made it to the platter; everything after is demoted,
  // identically in two fresh runs, and the survivors replay serially.
  ViewServer::Options options =
      SmallOptions(sim::StrategyKind::kDeferred, 1);
  options.schedule.clients = 4;
  options.schedule.ops_per_client = 6;
  options.driver.group_commit = true;
  options.commit_batch = 4;
  options.crash_at_disk_op = 40;
  const ViewServer::Result first = MustRun(options);
  EXPECT_TRUE(first.crashed);
  EXPECT_GE(first.recoveries, 1u);
  const ViewServer::Result second = MustRun(options);
  ASSERT_EQ(first.ops.size(), second.ops.size());
  for (size_t i = 0; i < first.ops.size(); ++i) {
    EXPECT_EQ(first.ops[i].status, second.ops[i].status) << "op " << i;
  }
  EXPECT_EQ(first.state_digest, second.state_digest);
  std::string detail;
  const Status oracle = CheckSerializability(options, &detail);
  EXPECT_TRUE(oracle.ok()) << oracle.message();
}

/// Deferred Model 1 under group commit (batches of 4): 8 clients × 12 ops
/// over a 256-frame pool, in one contention profile — the options of
/// bench_server's `server group-commit <profile>` tables.
ViewServer::Options GroupCommitOptions(ContentionProfile profile) {
  ViewServer::Options options;
  options.driver.kind = sim::StrategyKind::kDeferred;
  options.driver.model = 1;
  options.driver.params = sim::TortureParams(costmodel::Params());
  options.driver.seed = 17;
  options.driver.group_commit = true;
  options.driver.pool_pages = 256;
  options.schedule.clients = 8;
  options.schedule.ops_per_client = 12;
  options.schedule.update_fraction = 0.5;
  options.schedule.abort_fraction = 0.1;
  options.schedule.seed = 4242;
  options.schedule.contention = profile;
  options.commit_batch = 4;
  return options;
}

/// One SplitMix64 fold of every op's status, transaction id, five cost
/// counters and commit stamp (its bits).
uint64_t OutcomeFold(const ViewServer::Result& result) {
  uint64_t h = 0;
  for (const ViewServer::OpResult& op : result.ops) {
    for (const uint64_t word :
         {static_cast<uint64_t>(op.status), op.txn_id, op.cost.disk_reads,
          op.cost.disk_writes, op.cost.screen_tests, op.cost.tuple_cpu_ops,
          op.cost.ad_set_ops, std::bit_cast<uint64_t>(op.commit_ms)}) {
      h = SplitMix64(h ^ word);
    }
  }
  return h;
}

TEST(ViewServer, PerOpOutcomesArePinned) {
  // Every logical number the executor produces, pinned to the values the
  // schedule-order execution gave when they were recorded: a change to the
  // op loop, the group-commit sync or the retirement stamp moves a fold.
  struct Pinned {
    const char* name;
    ViewServer::Options options;
    uint64_t fold;
    uint64_t commit_batches;
    double model_ms;
    uint64_t state_digest;
  };
  ViewServer::Options crash = SmallOptions(sim::StrategyKind::kDeferred, 1);
  crash.schedule.clients = 4;
  crash.schedule.ops_per_client = 6;
  crash.driver.group_commit = true;
  crash.commit_batch = 4;
  crash.crash_at_disk_op = 40;
  const Pinned pinned[] = {
      {"disjoint", GroupCommitOptions(ContentionProfile::kDisjoint),
       0xcd64c4129cf3cf2bull, 12, 15314.0, 0x7a2f3cec009c6d2full},
      {"hot-range", GroupCommitOptions(ContentionProfile::kHotRange),
       0x3e928c5bed8373b3ull, 12, 13118.0, 0x84870f2dbca4f14dull},
      {"uniform", GroupCommitOptions(ContentionProfile::kUniform),
       0x84bf5a771d2adc25ull, 12, 17658.0, 0x6dec0100af3d0295ull},
      {"group-commit crash", crash, 0xa16c41b3dae88cd8ull, 1, 1156.0,
       0x734d8b1006eaf8c6ull},
  };
  for (const Pinned& p : pinned) {
    const ViewServer::Result result = MustRun(p.options);
    EXPECT_EQ(OutcomeFold(result), p.fold) << p.name;
    EXPECT_EQ(result.commit_batches, p.commit_batches) << p.name;
    EXPECT_DOUBLE_EQ(result.model_ms, p.model_ms) << p.name;
    EXPECT_EQ(result.state_digest, p.state_digest) << p.name;
  }
}

TEST(ViewServer, StaleAnswersAreReported) {
  // A commit the schedule does not know about makes every answer that
  // covers its key disagree with the expected one; the server must say so.
  auto server = ViewServer::Create(
      SmallOptions(sim::StrategyKind::kImmediate, 1));
  ASSERT_TRUE(server.ok());
  const Schedule& schedule = (*server)->schedule();
  sim::StrategyDriver* driver = (*server)->driver();
  const int64_t f_cut = driver->scenario()->ViewTupleCount();
  const auto updated = [&schedule](int64_t key) {
    for (const ScheduledOp& op : schedule.ops) {
      for (const auto& [victim, value] : op.victims) {
        if (victim == key) return true;
      }
    }
    return false;
  };
  int64_t key = -1;
  for (const ScheduledOp& op : schedule.ops) {
    if (op.kind != OpKind::kQuery) continue;
    for (int64_t k = std::max<int64_t>(op.lo, 0);
         key < 0 && k <= std::min(op.hi, f_cut - 1); ++k) {
      if (!updated(k)) key = k;
    }
    if (key >= 0) break;
  }
  ASSERT_GE(key, 0) << "no query covers a view key the schedule never updates";

  const sim::ShadowOracle shadow = sim::MakeShadow(*driver->scenario());
  sim::StagedTxn staged(shadow, driver->base());
  staged.Set(key, shadow.v[key] + 1.0);
  ASSERT_TRUE(driver->OnTransaction(staged.txn()).ok());

  auto result = (*server)->Run();
  ASSERT_TRUE(result.ok()) << result.status().message();
  size_t stale = 0;
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    const ScheduledOp& op = schedule.ops[i];
    if (op.kind != OpKind::kQuery) continue;
    const bool covers = op.lo <= key && key <= op.hi;
    EXPECT_EQ(result->ops[i].status,
              covers ? OpStatus::kQueryStale : OpStatus::kQueryExact)
        << "op " << i << " [" << op.lo << ", " << op.hi << "] key " << key;
    stale += covers ? 1 : 0;
  }
  EXPECT_GT(stale, 0u);
  EXPECT_EQ(result->queries_stale, stale);
}

TEST(ViewServer, RunIsOneShot) {
  auto server = ViewServer::Create(
      SmallOptions(sim::StrategyKind::kQueryModification, 1));
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Run().ok());
  EXPECT_FALSE((*server)->Run().ok());
}

}  // namespace
}  // namespace viewmat::server
