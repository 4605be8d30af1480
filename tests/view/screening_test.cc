#include "view/screening.h"

#include <gtest/gtest.h>

#include "db/catalog.h"
#include "testing/view_fixture.h"

namespace viewmat::view {
namespace {

using testing::ViewTestDb;

db::Schema BaseSchema() {
  return db::Schema({db::Field::Int64("k1"), db::Field::Int64("k2"),
                     db::Field::Double("v")});
}

db::Tuple Row(int64_t k1, int64_t k2, double v) {
  return db::Tuple({db::Value(k1), db::Value(k2), db::Value(v)});
}

class ScreeningTest : public ::testing::Test {
 protected:
  ScreeningTest()
      : disk_(512, &tracker_),
        pool_(&disk_, 16),
        base_(&pool_, "R", BaseSchema(), db::AccessMethod::kClusteredBTree,
              0) {}

  storage::CostTracker tracker_;
  storage::SimulatedDisk disk_;
  storage::BufferPool pool_;
  db::Relation base_;
};

TEST_F(ScreeningTest, Stage1RejectsOutsideIntervalForFree) {
  // Predicate: k1 in [100, 200). Tuples far outside fail at stage 1 with
  // no C1 charge.
  UpdateScreen screen(db::Predicate::Between(0, 100, 199), 0, &tracker_);
  EXPECT_FALSE(screen.Passes(Row(5, 0, 0)));
  EXPECT_FALSE(screen.Passes(Row(500, 0, 0)));
  EXPECT_EQ(screen.screened(), 2u);
  EXPECT_EQ(screen.substitutions(), 0u);
  EXPECT_EQ(tracker_.counters().screen_tests, 0u);  // stage 1 is free
}

TEST_F(ScreeningTest, Stage2ChargesC1AndDecides) {
  UpdateScreen screen(db::Predicate::Between(0, 100, 199), 0, &tracker_);
  EXPECT_TRUE(screen.Passes(Row(150, 0, 0)));
  EXPECT_EQ(screen.substitutions(), 1u);
  EXPECT_EQ(screen.passes(), 1u);
  EXPECT_EQ(tracker_.counters().screen_tests, 1u);
}

TEST_F(ScreeningTest, DisjointClausesLockSeparateIntervals) {
  // Non-convex predicates lock a set of intervals ("the index intervals
  // covered by one or more clauses", §1): the gap between clauses fails at
  // stage 1 for free — no hull false drops.
  auto pred = db::Predicate::Or(db::Predicate::Between(0, 0, 10),
                                db::Predicate::Between(0, 100, 110));
  UpdateScreen screen(pred, 0, &tracker_);
  EXPECT_EQ(screen.intervals().size(), 2u);
  EXPECT_FALSE(screen.Passes(Row(50, 0, 0)));  // in the gap: free reject
  EXPECT_EQ(screen.substitutions(), 0u);
  EXPECT_EQ(tracker_.counters().screen_tests, 0u);
  EXPECT_TRUE(screen.Passes(Row(105, 0, 0)));  // second clause
}

TEST_F(ScreeningTest, FalseDropsFromOtherFieldClausesPayStage2) {
  // Genuine false drops remain when the predicate also constrains fields
  // the single-field t-lock cannot see: the tuple breaks the lock, pays
  // C1 at stage 2, and is rejected there.
  auto pred = db::Predicate::And(
      db::Predicate::Between(0, 0, 100),
      db::Predicate::Compare(1, db::CompareOp::kEq, db::Value(int64_t{7})));
  UpdateScreen screen(pred, 0, &tracker_);
  EXPECT_FALSE(screen.Passes(Row(50, 3, 0)));  // k2 != 7: stage-2 reject
  EXPECT_EQ(screen.substitutions(), 1u);
  EXPECT_EQ(screen.passes(), 0u);
  EXPECT_EQ(tracker_.counters().screen_tests, 1u);
}

TEST_F(ScreeningTest, NoFalseNegativesProperty) {
  // Safety: every predicate-satisfying tuple must pass the full screen.
  auto pred = db::Predicate::And(
      db::Predicate::Between(0, 10, 90),
      db::Predicate::Compare(1, db::CompareOp::kGt, db::Value(int64_t{5})));
  UpdateScreen screen(pred, 0, &tracker_);
  for (int64_t k1 = 0; k1 < 120; ++k1) {
    for (int64_t k2 : {0, 10}) {
      const db::Tuple t = Row(k1, k2, 0);
      if (pred->Evaluate(t)) {
        EXPECT_TRUE(screen.Passes(t)) << t.ToString();
      }
    }
  }
}

TEST_F(ScreeningTest, UnboundedPredicateScreensEverythingAtStage2) {
  UpdateScreen screen(db::Predicate::True(), 0, &tracker_);
  EXPECT_TRUE(screen.Passes(Row(1, 0, 0)));
  EXPECT_EQ(screen.substitutions(), 1u);
}

TEST_F(ScreeningTest, FactoryFromSelectProjectDef) {
  SelectProjectDef def;
  def.base = &base_;
  def.predicate = db::Predicate::Between(0, 0, 49);
  def.projection = {0, 2};
  def.view_key_field = 0;
  UpdateScreen screen = UpdateScreen::ForSelectProject(def, &tracker_);
  EXPECT_TRUE(screen.Passes(Row(10, 0, 0)));
  EXPECT_FALSE(screen.Passes(Row(60, 0, 0)));
  ASSERT_EQ(screen.intervals().size(), 1u);
  EXPECT_EQ(*screen.intervals().intervals()[0].lo, 0);
  EXPECT_EQ(*screen.intervals().intervals()[0].hi, 49);
}

TEST_F(ScreeningTest, NullTrackerStillScreens) {
  UpdateScreen screen(db::Predicate::Between(0, 0, 10), 0, nullptr);
  EXPECT_TRUE(screen.Passes(Row(5, 0, 0)));
  EXPECT_FALSE(screen.Passes(Row(50, 0, 0)));
}

TEST_F(ScreeningTest, CountersAccumulate) {
  UpdateScreen screen(db::Predicate::Between(0, 0, 9), 0, &tracker_);
  for (int64_t k = 0; k < 100; ++k) {
    screen.Passes(Row(k, 0, 0));
  }
  EXPECT_EQ(screen.screened(), 100u);
  EXPECT_EQ(screen.substitutions(), 10u);
  EXPECT_EQ(screen.passes(), 10u);
  // Exactly the f*u accounting: only interval hits cost C1.
  EXPECT_EQ(tracker_.counters().screen_tests, 10u);
}

// --- The non-default modes and the RIU field analysis ----------------------

class ScreeningModesTest : public ::testing::Test {
 protected:
  ScreeningModesTest() : def_(db_.SpDef()) {}

  UpdateScreen MakeScreen(ScreeningMode mode) {
    return UpdateScreen::ForSelectProject(def_, &db_.tracker_, mode);
  }

  ViewTestDb db_;
  SelectProjectDef def_;
};

TEST_F(ScreeningModesTest, FieldsReadCoversPredicateAndProjection) {
  const std::set<size_t> fields = FieldsRead(def_);
  EXPECT_TRUE(fields.contains(0));  // k1: predicate + projection + key
  EXPECT_TRUE(fields.contains(2));  // v: projected
  EXPECT_FALSE(fields.contains(1)); // k2: untouched by this view
}

TEST_F(ScreeningModesTest, FieldsReadForJoinIncludesJoinField) {
  const std::set<size_t> fields = FieldsRead(db_.JDef());
  EXPECT_TRUE(fields.contains(1));  // the join attribute
  EXPECT_TRUE(fields.contains(0));  // C_f field + projection
}

TEST_F(ScreeningModesTest, FieldsWrittenDetectsChangedFieldOfUpdate) {
  db::NetChange nc;
  nc.AddDelete(Row(5, 1, 10.0));
  nc.AddInsert(Row(5, 1, 99.0));  // only v changed
  const std::set<size_t> written = FieldsWritten(nc);
  EXPECT_EQ(written, (std::set<size_t>{2}));
}

TEST_F(ScreeningModesTest, FieldsWrittenWholeTupleForPureInsertDelete) {
  db::NetChange ins;
  ins.AddInsert(Row(5, 1, 10.0));
  EXPECT_EQ(FieldsWritten(ins).size(), 3u);
  db::NetChange del;
  del.AddDelete(Row(5, 1, 10.0));
  EXPECT_EQ(FieldsWritten(del).size(), 3u);
}

TEST_F(ScreeningModesTest, RuleIndexOnlyPaysForIntervalHits) {
  UpdateScreen screen = MakeScreen(ScreeningMode::kRuleIndex);
  const auto before = db_.tracker_.counters().screen_tests;
  EXPECT_FALSE(screen.Passes(Row(150, 0, 1.0)));  // outside [*, 59]
  EXPECT_EQ(db_.tracker_.counters().screen_tests, before);  // free
  EXPECT_TRUE(screen.Passes(Row(10, 0, 1.0)));
  EXPECT_EQ(db_.tracker_.counters().screen_tests, before + 1);
}

TEST_F(ScreeningModesTest, SubstituteAllPaysForEveryTuple) {
  UpdateScreen screen = MakeScreen(ScreeningMode::kSubstituteAll);
  const auto before = db_.tracker_.counters().screen_tests;
  EXPECT_FALSE(screen.Passes(Row(150, 0, 1.0)));  // still costs C1
  EXPECT_TRUE(screen.Passes(Row(10, 0, 1.0)));
  EXPECT_EQ(db_.tracker_.counters().screen_tests, before + 2);
}

TEST_F(ScreeningModesTest, RiuIgnoresCommandsWritingUnreadFields) {
  UpdateScreen screen = MakeScreen(ScreeningMode::kRiu);
  // An update that only rewrites k2 — a field the view never reads.
  db::NetChange nc;
  nc.AddDelete(Row(5, 1, 10.0));
  nc.AddInsert(Row(5, 2, 10.0));
  EXPECT_TRUE(screen.TransactionIsIgnorable(nc));
  EXPECT_EQ(screen.riu_transactions(), 1u);
  EXPECT_EQ(db_.tracker_.counters().screen_tests, 0u);  // no per-tuple cost
}

TEST_F(ScreeningModesTest, RiuFallsBackToSubstitutionWhenViewFieldWritten) {
  UpdateScreen screen = MakeScreen(ScreeningMode::kRiu);
  db::NetChange nc;
  nc.AddDelete(Row(5, 1, 10.0));
  nc.AddInsert(Row(5, 1, 99.0));  // v is read by the view
  EXPECT_FALSE(screen.TransactionIsIgnorable(nc));
  // Run-time phase substitutes every tuple (no t-lock shortcut in Bune79).
  EXPECT_TRUE(screen.Passes(nc.deletes()[0]));
  EXPECT_TRUE(screen.Passes(nc.inserts()[0]));
  EXPECT_EQ(db_.tracker_.counters().screen_tests, 2u);
}

TEST_F(ScreeningModesTest, OtherModesNeverIgnoreTransactions) {
  db::NetChange nc;
  nc.AddDelete(Row(5, 1, 10.0));
  nc.AddInsert(Row(5, 2, 10.0));
  UpdateScreen rule = MakeScreen(ScreeningMode::kRuleIndex);
  UpdateScreen all = MakeScreen(ScreeningMode::kSubstituteAll);
  EXPECT_FALSE(rule.TransactionIsIgnorable(nc));
  EXPECT_FALSE(all.TransactionIsIgnorable(nc));
}

TEST_F(ScreeningModesTest, AllModesAgreeOnTheDecision) {
  // Screening schemes differ in cost, never in outcome: a tuple passes one
  // iff it passes all (for non-ignored commands).
  UpdateScreen rule = MakeScreen(ScreeningMode::kRuleIndex);
  UpdateScreen all = MakeScreen(ScreeningMode::kSubstituteAll);
  UpdateScreen riu = MakeScreen(ScreeningMode::kRiu);
  for (int64_t k1 = 0; k1 < 200; k1 += 7) {
    const db::Tuple t = Row(k1, k1 % 20, 1.0 * k1);
    const bool want = k1 < ViewTestDb::kFCut;
    EXPECT_EQ(rule.Passes(t), want) << k1;
    EXPECT_EQ(all.Passes(t), want) << k1;
    EXPECT_EQ(riu.Passes(t), want) << k1;
  }
}

TEST_F(ScreeningModesTest, ModeNames) {
  EXPECT_STREQ(ScreeningModeName(ScreeningMode::kRuleIndex), "rule-index");
  EXPECT_STREQ(ScreeningModeName(ScreeningMode::kSubstituteAll),
               "substitute-all");
  EXPECT_STREQ(ScreeningModeName(ScreeningMode::kRiu), "riu");
}

}  // namespace
}  // namespace viewmat::view
