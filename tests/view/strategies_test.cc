#include <gtest/gtest.h>

#include "testing/view_fixture.h"
#include "view/deferred.h"
#include "view/immediate.h"
#include "view/query_modification.h"

namespace viewmat::view {
namespace {

using testing::ViewTestDb;

db::Tuple SpValue(int64_t k1, double v) {
  return db::Tuple({db::Value(k1), db::Value(v)});
}

// --- Query modification ----------------------------------------------------

TEST(QmSelectProject, AnswersFromBase) {
  ViewTestDb db;
  QmSelectProjectStrategy qm(db.SpDef(), &db.tracker_);
  const auto all = db.QueryAll(&qm);
  EXPECT_EQ(all.size(), static_cast<size_t>(ViewTestDb::kFCut));
  EXPECT_EQ(all.count(SpValue(10, 10.0)), 1u);
  EXPECT_EQ(all.count(SpValue(60, 60.0)), 0u);  // outside predicate
}

TEST(QmSelectProject, SeesUpdatesImmediately) {
  ViewTestDb db;
  QmSelectProjectStrategy qm(db.SpDef(), &db.tracker_);
  ASSERT_TRUE(qm.OnTransaction(db.UpdateTxn(10, 777.0)).ok());
  const auto all = db.QueryAll(&qm);
  EXPECT_EQ(all.count(SpValue(10, 777.0)), 1u);
  EXPECT_EQ(all.count(SpValue(10, 10.0)), 0u);
}

TEST(QmSelectProject, RangeRestrictsAnswer) {
  ViewTestDb db;
  QmSelectProjectStrategy qm(db.SpDef(), &db.tracker_);
  const auto some = db.QueryAll(&qm, 10, 19);
  EXPECT_EQ(some.size(), 10u);
}

TEST(QmSelectProject, SequentialPlanSameAnswer) {
  ViewTestDb db;
  QmSelectProjectStrategy clustered(db.SpDef(), &db.tracker_);
  QmSelectProjectStrategy sequential(db.SpDef(), &db.tracker_,
                                     /*force_sequential=*/true);
  EXPECT_EQ(db.QueryAll(&clustered), db.QueryAll(&sequential));
}

TEST(QmJoin, JoinsThroughHashIndex) {
  ViewTestDb db;
  QmJoinStrategy qm(db.JDef(), &db.tracker_);
  const auto all = db.QueryAll(&qm);
  EXPECT_EQ(all.size(), static_cast<size_t>(ViewTestDb::kFCut));
  // k1=7 joins R2 key 7 (w = 700).
  const db::Tuple expected({db::Value(int64_t{7}), db::Value(7.0),
                            db::Value(int64_t{7}), db::Value(700.0)});
  EXPECT_EQ(all.count(expected), 1u);
}

// --- Immediate --------------------------------------------------------------

TEST(Immediate, InitializeMatchesQueryModification) {
  ViewTestDb db;
  ImmediateStrategy imm(db.SpDef(), &db.tracker_);
  ASSERT_TRUE(imm.InitializeFromBase().ok());
  QmSelectProjectStrategy qm(db.SpDef(), &db.tracker_);
  EXPECT_EQ(db.QueryAll(&imm), db.QueryAll(&qm));
}

TEST(Immediate, RefreshesAfterEveryTransaction) {
  ViewTestDb db;
  ImmediateStrategy imm(db.SpDef(), &db.tracker_);
  ASSERT_TRUE(imm.InitializeFromBase().ok());
  ASSERT_TRUE(imm.OnTransaction(db.UpdateTxn(5, 500.0)).ok());
  EXPECT_EQ(imm.refresh_count(), 1u);
  const auto all = db.QueryAll(&imm);
  EXPECT_EQ(all.count(SpValue(5, 500.0)), 1u);
  EXPECT_EQ(all.count(SpValue(5, 5.0)), 0u);
}

TEST(Immediate, IrrelevantUpdatesDoNotTouchView) {
  ViewTestDb db;
  ImmediateStrategy imm(db.SpDef(), &db.tracker_);
  ASSERT_TRUE(imm.InitializeFromBase().ok());
  // k1 = 150 is outside the predicate: stage-1 t-lock rejects it free.
  ASSERT_TRUE(imm.OnTransaction(db.UpdateTxn(150, 9.0)).ok());
  EXPECT_EQ(imm.view()->total_count(), ViewTestDb::kFCut);
  EXPECT_EQ(imm.screen().substitutions(), 0u);
}

TEST(Immediate, JoinViewMaintainsJoinedTuples) {
  ViewTestDb db;
  ImmediateStrategy imm(db.JDef(), &db.tracker_);
  ASSERT_TRUE(imm.InitializeFromBase().ok());
  ASSERT_TRUE(imm.OnTransaction(db.UpdateTxn(7, 71.0)).ok());
  const auto all = db.QueryAll(&imm);
  const db::Tuple expected({db::Value(int64_t{7}), db::Value(71.0),
                            db::Value(int64_t{7}), db::Value(700.0)});
  EXPECT_EQ(all.count(expected), 1u);
}

// --- Deferred ---------------------------------------------------------------

TEST(Deferred, RefreshHappensAtQueryTime) {
  ViewTestDb db;
  DeferredStrategy def(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(def.InitializeFromBase().ok());
  ASSERT_TRUE(def.OnTransaction(db.UpdateTxn(5, 500.0)).ok());
  ASSERT_TRUE(def.OnTransaction(db.UpdateTxn(6, 600.0)).ok());
  EXPECT_EQ(def.refresh_count(), 0u);
  EXPECT_GT(def.pending_tuples(), 0u);
  const auto all = db.QueryAll(&def);
  EXPECT_EQ(def.refresh_count(), 1u);
  EXPECT_EQ(def.pending_tuples(), 0u);
  EXPECT_EQ(all.count(SpValue(5, 500.0)), 1u);
  EXPECT_EQ(all.count(SpValue(6, 600.0)), 1u);
}

TEST(Deferred, BatchesManyTransactionsIntoOneRefresh) {
  ViewTestDb db;
  DeferredStrategy def(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(def.InitializeFromBase().ok());
  for (int64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(def.OnTransaction(db.UpdateTxn(k, 1000.0 + k)).ok());
  }
  (void)db.QueryAll(&def);
  EXPECT_EQ(def.refresh_count(), 1u);  // one batched refresh, 20 txns
}

TEST(Deferred, RepeatedUpdatesOfSameTupleNetOut) {
  ViewTestDb db;
  DeferredStrategy def(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(def.InitializeFromBase().ok());
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(def.OnTransaction(db.UpdateTxn(5, 100.0 + round)).ok());
  }
  // Intermediate versions cancel inside the AD file: at most the original
  // delete and the final insert remain.
  EXPECT_LE(def.pending_tuples(), 2u);
  const auto all = db.QueryAll(&def);
  EXPECT_EQ(all.count(SpValue(5, 109.0)), 1u);
}

TEST(Deferred, QueryWithNoPendingWorkSkipsRefresh) {
  ViewTestDb db;
  DeferredStrategy def(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(def.InitializeFromBase().ok());
  (void)db.QueryAll(&def);
  EXPECT_EQ(def.refresh_count(), 0u);
}

TEST(Deferred, ExplicitRefreshSupportsAsyncPattern) {
  // §4 suggests refreshing during idle time; Refresh() is exposed for that.
  ViewTestDb db;
  DeferredStrategy def(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(def.InitializeFromBase().ok());
  ASSERT_TRUE(def.OnTransaction(db.UpdateTxn(5, 42.0)).ok());
  ASSERT_TRUE(def.Refresh().ok());
  EXPECT_EQ(def.refresh_count(), 1u);
  (void)db.QueryAll(&def);
  EXPECT_EQ(def.refresh_count(), 1u);  // nothing left to do at query time
}

TEST(Deferred, JoinViewDeferredMaintenance) {
  ViewTestDb db;
  DeferredStrategy def(db.JDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(def.InitializeFromBase().ok());
  ASSERT_TRUE(def.OnTransaction(db.UpdateTxn(7, 71.0)).ok());
  const auto all = db.QueryAll(&def);
  const db::Tuple expected({db::Value(int64_t{7}), db::Value(71.0),
                            db::Value(int64_t{7}), db::Value(700.0)});
  EXPECT_EQ(all.count(expected), 1u);
}

TEST(Deferred, FoldsBaseRelationAtRefresh) {
  ViewTestDb db;
  DeferredStrategy def(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(def.InitializeFromBase().ok());
  ASSERT_TRUE(def.OnTransaction(db.UpdateTxn(5, 500.0)).ok());
  // Before refresh the base still holds the old value...
  db::Tuple row;
  ASSERT_TRUE(db.base_->FindByKey(5, &row).ok());
  EXPECT_DOUBLE_EQ(row.at(2).AsDouble(), 5.0);
  ASSERT_TRUE(def.Refresh().ok());
  // ...after it, R := (R ∪ A) − D has been applied.
  ASSERT_TRUE(db.base_->FindByKey(5, &row).ok());
  EXPECT_DOUBLE_EQ(row.at(2).AsDouble(), 500.0);
}

}  // namespace
}  // namespace viewmat::view
