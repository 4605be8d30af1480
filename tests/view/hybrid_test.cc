#include "view/hybrid.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "testing/view_fixture.h"
#include "view/deferred.h"
#include "view/query_modification.h"

namespace viewmat::view {
namespace {

using testing::ViewTestDb;

std::map<db::Tuple, int64_t> HQuery(HybridStrategy* s, int64_t lo,
                                    int64_t hi) {
  std::map<db::Tuple, int64_t> out;
  VIEWMAT_CHECK(s->Query(lo, hi, [&](const db::Tuple& t, int64_t c) {
    out[t] += c;
    return true;
  }).ok());
  return out;
}

std::map<db::Tuple, int64_t> OracleAnswer(const ViewTestDb& db, int64_t lo,
                                          int64_t hi) {
  std::map<db::Tuple, int64_t> out;
  for (const auto& [key, v] : db.v_oracle_) {
    if (key < ViewTestDb::kFCut && key >= lo && key <= hi) {
      ++out[db::Tuple({db::Value(key), db::Value(v)})];
    }
  }
  return out;
}

TEST(Hybrid, AnswersMatchOracleOnEitherPath) {
  ViewTestDb db;
  HybridStrategy hybrid(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(hybrid.InitializeFromBase().ok());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(hybrid.OnTransaction(db.UpdateTxn(i * 3, 1000.0 + i)).ok());
  }
  // Small query (QM path, through the unfolded differential) and big query:
  // both must see all committed updates.
  EXPECT_EQ(HQuery(&hybrid, 5, 6), OracleAnswer(db, 5, 6));
  EXPECT_EQ(HQuery(&hybrid, 0, ViewTestDb::kFCut + 50),
            OracleAnswer(db, 0, ViewTestDb::kFCut + 50));
}

TEST(Hybrid, SmallQueriesPreferQmWithPendingWork) {
  ViewTestDb db;
  HybridStrategy hybrid(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(hybrid.InitializeFromBase().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(hybrid.OnTransaction(db.UpdateTxn(i, 777.0 + i)).ok());
  }
  const HybridStrategy::Estimate est = hybrid.EstimateQuery(5, 5);
  EXPECT_LT(est.qm_ms, est.view_ms);
  (void)HQuery(&hybrid, 5, 5);
  EXPECT_EQ(hybrid.qm_choices(), 1u);
  EXPECT_EQ(hybrid.refresh_count(), 0u);  // the view kept deferring
}

TEST(Hybrid, LargeQueriesPreferTheMaterializedView) {
  ViewTestDb db;
  HybridStrategy hybrid(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(hybrid.InitializeFromBase().ok());
  // No pending work at all: the smaller view wins for a full scan.
  const HybridStrategy::Estimate est =
      hybrid.EstimateQuery(0, ViewTestDb::kFCut - 1);
  EXPECT_LE(est.view_ms, est.qm_ms);
  (void)HQuery(&hybrid, 0, ViewTestDb::kFCut - 1);
  EXPECT_EQ(hybrid.view_choices(), 1u);
}

TEST(Hybrid, QmPathSeesUnfoldedUpdates) {
  // Correctness of QM-through-the-differential: updates not yet folded
  // into the base must still be visible.
  ViewTestDb db;
  HybridStrategy hybrid(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(hybrid.InitializeFromBase().ok());
  ASSERT_TRUE(hybrid.OnTransaction(db.UpdateTxn(5, 424242.0)).ok());
  const auto result = HQuery(&hybrid, 5, 5);
  EXPECT_EQ(hybrid.qm_choices(), 1u);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result.begin()->first.at(1).AsDouble(), 424242.0);
  // And the base really is still stale (fold deferred further).
  db::Tuple base_row;
  ASSERT_TRUE(db.base_->FindByKey(5, &base_row).ok());
  EXPECT_DOUBLE_EQ(base_row.at(2).AsDouble(), 5.0);
}

TEST(Hybrid, MixedWorkloadUsesBothPaths) {
  ViewTestDb db;
  HybridStrategy hybrid(db.SpDef(), db.AdOptions(), &db.tracker_);
  hybrid.set_max_pending(6);  // small backstop so the differential drains
  ASSERT_TRUE(hybrid.InitializeFromBase().ok());
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(hybrid.OnTransaction(db.UpdateTxn(round, 555.0 + round)).ok());
    (void)HQuery(&hybrid, round, round);                    // tiny
    if (round % 5 == 4) (void)HQuery(&hybrid, 0, 1 << 20);  // huge
  }
  EXPECT_GT(hybrid.qm_choices(), 0u);
  EXPECT_GT(hybrid.view_choices(), 0u);
  // The tiny queries kept choosing QM, so the backstop had to fire.
  EXPECT_GT(hybrid.forced_refreshes(), 0u);
  // Everything stays correct throughout.
  EXPECT_EQ(HQuery(&hybrid, 0, 1 << 20), OracleAnswer(db, 0, 1 << 20));
}

TEST(Hybrid, BackstopBoundsTheDifferential) {
  ViewTestDb db;
  HybridStrategy hybrid(db.SpDef(), db.AdOptions(), &db.tracker_);
  hybrid.set_max_pending(10);
  ASSERT_TRUE(hybrid.InitializeFromBase().ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(hybrid.OnTransaction(db.UpdateTxn(i, 900.0 + i)).ok());
    (void)HQuery(&hybrid, 3, 3);  // QM-favoring forever
  }
  // Refreshes fired and the AD never grew far past the cap.
  EXPECT_GT(hybrid.forced_refreshes(), 1u);
}

/// Drives `strategy` through a seeded mix of single-key updates and range
/// queries (one query per four ops) and returns every query's answer.
std::vector<std::map<db::Tuple, int64_t>> RunSeededHistory(
    ViewTestDb* db, DeferredStrategy* strategy, uint64_t seed) {
  Random rng(seed);
  std::vector<std::map<db::Tuple, int64_t>> answers;
  for (int op = 0; op < 80; ++op) {
    if (op % 4 == 3) {
      const auto lo = static_cast<int64_t>(rng.Uniform(ViewTestDb::kN));
      const auto hi = lo + static_cast<int64_t>(rng.Uniform(40));
      answers.push_back(db->QueryAll(strategy, lo, hi));
    } else {
      const auto key = static_cast<int64_t>(rng.Uniform(ViewTestDb::kN));
      VIEWMAT_CHECK(
          strategy->OnTransaction(db->UpdateTxn(key, 1000.0 + op)).ok());
    }
  }
  return answers;
}

TEST(Hybrid, ViewPathIsTheDeferredRefreshProtocolChargeForCharge) {
  // Ties go to the view path, and a huge amortization prices the refresh at
  // ~0, so every query routes to the view. The hybrid must then be exactly
  // the deferred strategy: same answers, same refreshes, same cost.
  for (const bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "WAL on" : "WAL off");
    ViewTestDb deferred_db;
    ViewTestDb hybrid_db;
    DeferredStrategy deferred(
        deferred_db.SpDef(),
        wal ? deferred_db.WalAdOptions() : deferred_db.AdOptions(),
        &deferred_db.tracker_);
    HybridStrategy hybrid(
        hybrid_db.SpDef(),
        wal ? hybrid_db.WalAdOptions() : hybrid_db.AdOptions(),
        &hybrid_db.tracker_);
    hybrid.set_refresh_amortization(1e12);
    ASSERT_EQ(hybrid.crash_safe(), wal);
    ASSERT_TRUE(deferred.InitializeFromBase().ok());
    ASSERT_TRUE(hybrid.InitializeFromBase().ok());

    EXPECT_EQ(RunSeededHistory(&hybrid_db, &hybrid, 17),
              RunSeededHistory(&deferred_db, &deferred, 17));
    EXPECT_EQ(hybrid.qm_choices(), 0u);
    EXPECT_EQ(hybrid.view_choices(), 20u);
    EXPECT_GT(deferred.refresh_count(), 0u);
    EXPECT_EQ(hybrid.refresh_count(), deferred.refresh_count());
    EXPECT_EQ(hybrid_db.tracker_.counters(), deferred_db.tracker_.counters());
  }
}

}  // namespace
}  // namespace viewmat::view
