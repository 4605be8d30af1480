// §4's shared hypothetical relation: several views as the members of one
// DeferredStrategy, refreshed by one fold.

#include <gtest/gtest.h>

#include <map>

#include "testing/view_fixture.h"
#include "view/deferred.h"
#include "view/query_modification.h"

namespace viewmat::view {
namespace {

using storage::CrashPoint;
using testing::ViewTestDb;

using Answer = std::map<db::Tuple, int64_t>;

/// Second view over the same base: high-k1 tuples, projecting (k1, k2).
SelectProjectDef SecondDef(ViewTestDb* db) {
  SelectProjectDef def;
  def.base = db->base_;
  def.predicate =
      db::Predicate::Compare(0, db::CompareOp::kGe, db::Value(int64_t{100}));
  def.projection = {0, 1};
  def.view_key_field = 0;
  return def;
}

/// A deferred strategy over the fixture's Model 1 view (member 0) and
/// SecondDef (member 1).
struct TwoViews {
  TwoViews(ViewTestDb* db, const hr::AdFile::Options& ad)
      : strategy(db->SpDef(), ad, &db->tracker_) {
    VIEWMAT_CHECK(strategy.InitializeFromBase().ok());
    VIEWMAT_CHECK(*strategy.AddView(SecondDef(db)) == 1);
  }
  DeferredStrategy strategy;
};

Answer QueryMember(DeferredStrategy* group, size_t index) {
  Answer out;
  VIEWMAT_CHECK(group->QueryView(index, 0, 1 << 20,
                                 [&](const db::Tuple& t, int64_t c) {
                                   out[t] += c;
                                   return true;
                                 }).ok());
  return out;
}

/// `def` recomputed from scratch over the strategy's visible base.
Answer Recompute(const DeferredStrategy& strategy,
                 const SelectProjectDef& def) {
  Answer out;
  VIEWMAT_CHECK(strategy
                    .ScanVisibleBase(def.base,
                                     [&](const db::Tuple& t) {
                                       db::Tuple value;
                                       if (def.MapTuple(t, &value)) {
                                         out[value] += 1;
                                       }
                                       return true;
                                     })
                    .ok());
  return out;
}

/// `def` over the fixture's oracle of acknowledged values.
Answer FromOracle(const ViewTestDb& db, const SelectProjectDef& def) {
  Answer out;
  for (const auto& [k, v] : db.v_oracle_) {
    db::Tuple value;
    if (def.MapTuple(db.BaseRow(k, v), &value)) out[value] += 1;
  }
  return out;
}

/// Acknowledged single-tuple updates that land in both members' ranges.
void ApplyTxns(ViewTestDb* db, DeferredStrategy* strategy, int count) {
  for (int i = 0; i < count; ++i) {
    const int64_t key = (i * 29) % ViewTestDb::kN;
    ASSERT_TRUE(strategy->OnTransaction(db->UpdateTxn(key, 500.0 + i)).ok());
  }
}

TEST(ViewGroup, MembersMaterializeCorrectlyAtRegistration) {
  ViewTestDb db;
  DeferredStrategy group(db.SpDef(), db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(group.InitializeFromBase().ok());
  ASSERT_TRUE(group.AddView(SecondDef(&db)).ok());
  EXPECT_EQ(group.view_count(), 2u);
  EXPECT_EQ(QueryMember(&group, 0).size(),
            static_cast<size_t>(ViewTestDb::kFCut));
  EXPECT_EQ(QueryMember(&group, 1).size(),
            static_cast<size_t>(ViewTestDb::kN - 100));
}

TEST(ViewGroup, RejectsForeignBaseAndLateRegistration) {
  ViewTestDb db;
  ViewTestDb other;
  DeferredStrategy group(db.SpDef(), db.AdOptions(), &db.tracker_);
  EXPECT_EQ(group.AddView(other.SpDef()).status().code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(group.AddView(db.SpDef()).ok());
  ASSERT_TRUE(group.OnTransaction(db.UpdateTxn(5, 1.0)).ok());
  EXPECT_EQ(group.AddView(SecondDef(&db)).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ViewGroup, OneFoldRefreshesAllMembers) {
  ViewTestDb db;
  TwoViews views(&db, db.AdOptions());  // k1 < 60 and k1 >= 100
  DeferredStrategy& group = views.strategy;
  // One update relevant to each view.
  ASSERT_TRUE(group.OnTransaction(db.UpdateTxn(5, 500.0)).ok());
  ASSERT_TRUE(group.OnTransaction(db.UpdateTxn(150, 999.0)).ok());
  EXPECT_EQ(group.refresh_count(), 0u);
  // Querying member 0 folds once...
  const auto m0 = QueryMember(&group, 0);
  EXPECT_EQ(group.refresh_count(), 1u);
  EXPECT_EQ(m0.count(db::Tuple({db::Value(int64_t{5}), db::Value(500.0)})),
            1u);
  // ...and member 1 is ALSO current without another fold.
  const auto m1 = QueryMember(&group, 1);
  EXPECT_EQ(group.refresh_count(), 1u);
  EXPECT_EQ(m1.count(db::Tuple({db::Value(int64_t{150}),
                                db::Value(int64_t{150 % ViewTestDb::kR2N})})),
            1u);
  EXPECT_EQ(group.pending_tuples(), 0u);
}

TEST(ViewGroup, MembersMatchIndependentQueryModification) {
  ViewTestDb db;
  TwoViews views(&db, db.AdOptions());
  DeferredStrategy& group = views.strategy;
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        group.OnTransaction(db.UpdateTxn((i * 17) % 200, 3.0 * i)).ok());
  }
  ASSERT_TRUE(group.Refresh().ok());
  QmSelectProjectStrategy qm0(db.SpDef(), &db.tracker_);
  QmSelectProjectStrategy qm1(SecondDef(&db), &db.tracker_);
  EXPECT_EQ(QueryMember(&group, 0), db.QueryAll(&qm0));
  EXPECT_EQ(QueryMember(&group, 1), db.QueryAll(&qm1));
}

TEST(ViewGroup, QueryOutOfRangeIndexFails) {
  ViewTestDb db;
  DeferredStrategy group(db.SpDef(), db.AdOptions(), &db.tracker_);
  EXPECT_EQ(group
                .QueryView(3, 0, 10,
                           [](const db::Tuple&, int64_t) { return true; })
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ViewGroup, SharedFoldAmortizesAdReads) {
  // Cost claim of §4: with V views, the AD file is read once per refresh
  // wave instead of V times. A two-member refresh must read the AD pages
  // (the hash file's reads in the refresh phase) no more times than a
  // one-member refresh over the same differential.
  const auto ad_reads_of_refresh = [](bool second_member) {
    ViewTestDb db;
    DeferredStrategy group(db.SpDef(), db.AdOptions(), &db.tracker_);
    EXPECT_TRUE(group.InitializeFromBase().ok());
    if (second_member) {
      EXPECT_TRUE(group.AddView(SecondDef(&db)).ok());
    }
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(group.OnTransaction(db.UpdateTxn(i * 19, 1.0 * i)).ok());
    }
    (void)db.pool_.FlushAndEvictAll();
    const storage::AttributedCounters before = db.tracker_.attributed();
    EXPECT_TRUE(group.Refresh().ok());
    EXPECT_EQ(group.refresh_count(), 1u);
    return (db.tracker_.attributed() - before)
        .at(storage::Component::kHashIndex, storage::Phase::kRefresh)
        .disk_reads;
  };
  const uint64_t one = ad_reads_of_refresh(false);
  const uint64_t two = ad_reads_of_refresh(true);
  EXPECT_GT(one, 0u);
  EXPECT_LE(two, one);
}

TEST(ViewGroup, RecoverRollsEveryMemberForwardFromEveryRefreshCrashPoint) {
  // The journaled refresh patches every member between kRefreshBegin and
  // kViewPatched, so a crash anywhere in it must leave both members equal
  // to a recompute once Recover() has rolled the epoch forward.
  const CrashPoint kRefreshPoints[] = {
      CrashPoint::kBeforeViewPatch, CrashPoint::kMidViewPatch,
      CrashPoint::kAfterViewPatch,  CrashPoint::kBeforeFold,
      CrashPoint::kMidFold,         CrashPoint::kBeforeAdReset,
      CrashPoint::kMidAdReset,
  };
  for (const CrashPoint cp : kRefreshPoints) {
    SCOPED_TRACE(storage::CrashPointName(cp));
    ViewTestDb db;
    TwoViews views(&db, db.WalAdOptions());
    DeferredStrategy& group = views.strategy;
    ApplyTxns(&db, &group, 8);

    db.disk_.ScriptCrash(cp);
    EXPECT_FALSE(group.Refresh().ok());
    EXPECT_TRUE(db.disk_.crashed());

    db.disk_.Restart();
    ASSERT_TRUE(group.Recover().ok());
    EXPECT_EQ(group.phase(), RecoveryPhase::kNone);
    EXPECT_EQ(group.pending_tuples(), 0u);
    for (const SelectProjectDef& def : {db.SpDef(), SecondDef(&db)}) {
      EXPECT_EQ(Recompute(group, def), FromOracle(db, def));
    }
    EXPECT_EQ(QueryMember(&group, 0), Recompute(group, db.SpDef()));
    EXPECT_EQ(QueryMember(&group, 1), Recompute(group, SecondDef(&db)));
  }
}

TEST(ViewGroup, DegradedReadServesTheAskedMember) {
  // A crash mid-patch with the device then refusing writes: the epoch
  // cannot roll forward, so each member is answered by query modification
  // over base ∪ AD through its own definition.
  ViewTestDb db;
  TwoViews views(&db, db.WalAdOptions());
  DeferredStrategy& group = views.strategy;
  ApplyTxns(&db, &group, 8);
  db.disk_.ScriptCrash(CrashPoint::kMidViewPatch);
  EXPECT_FALSE(group.Refresh().ok());
  db.disk_.Restart();
  db.disk_.set_write_fault_rate(1.0);
  EXPECT_EQ(QueryMember(&group, 1), FromOracle(db, SecondDef(&db)));
  EXPECT_EQ(QueryMember(&group, 0), FromOracle(db, db.SpDef()));
  EXPECT_GE(group.degraded_queries(), 2u);

  db.disk_.ClearFaults();
  EXPECT_EQ(QueryMember(&group, 1), FromOracle(db, SecondDef(&db)));
  EXPECT_EQ(group.phase(), RecoveryPhase::kNone);
  EXPECT_EQ(QueryMember(&group, 0), FromOracle(db, db.SpDef()));
}

}  // namespace
}  // namespace viewmat::view
