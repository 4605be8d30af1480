#include <gtest/gtest.h>

#include <map>

#include "testing/view_fixture.h"
#include "view/deferred.h"

namespace viewmat::view {
namespace {

using storage::CrashPoint;
using testing::ViewTestDb;

/// The Model 1 view a fresh strategy must answer: σ(k1 < 60) -> (k1, v),
/// with v taken from the fixture's oracle.
std::map<db::Tuple, int64_t> ExpectedSp(const ViewTestDb& db) {
  std::map<db::Tuple, int64_t> out;
  for (const auto& [k, v] : db.v_oracle_) {
    if (k < ViewTestDb::kFCut) {
      out[db::Tuple({db::Value(k), db::Value(v)})] = 1;
    }
  }
  return out;
}

/// The Model 2 view: σ(k1 < 60)(R ⋈ R2) -> (k1, v, key, w).
std::map<db::Tuple, int64_t> ExpectedJoin(const ViewTestDb& db) {
  std::map<db::Tuple, int64_t> out;
  for (const auto& [k, v] : db.v_oracle_) {
    if (k < ViewTestDb::kFCut) {
      const int64_t r2key = k % ViewTestDb::kR2N;
      out[db::Tuple({db::Value(k), db::Value(v), db::Value(r2key),
                     db::Value(r2key * 100.0)})] = 1;
    }
  }
  return out;
}

/// Applies `count` acknowledged single-tuple updates spread over the key
/// space (some inside the view predicate, some outside).
void ApplyTxns(ViewTestDb* db, DeferredStrategy* def, int count,
               double bias = 500.0) {
  for (int i = 0; i < count; ++i) {
    const int64_t key = (i * 29) % ViewTestDb::kN;
    const db::Transaction txn = db->UpdateTxn(key, bias + i);
    ASSERT_TRUE(def->OnTransaction(txn).ok());
  }
}

class DeferredRecoveryTest : public ::testing::Test {
 protected:
  DeferredRecoveryTest() : def_(db_.SpDef(), db_.WalAdOptions(), &db_.tracker_) {
    VIEWMAT_CHECK(def_.InitializeFromBase().ok());
  }

  ViewTestDb db_;
  DeferredStrategy def_;
};

TEST_F(DeferredRecoveryTest, CrashSafeModeIsOptIn) {
  EXPECT_TRUE(def_.crash_safe());
  DeferredStrategy plain(db_.SpDef(), db_.AdOptions(), &db_.tracker_);
  EXPECT_FALSE(plain.crash_safe());
  EXPECT_EQ(plain.Recover().code(), StatusCode::kFailedPrecondition);
}

TEST_F(DeferredRecoveryTest, CleanRefreshLeavesNoInFlightEpoch) {
  ApplyTxns(&db_, &def_, 10);
  EXPECT_GT(def_.pending_tuples(), 0u);
  ASSERT_TRUE(def_.Refresh().ok());
  EXPECT_EQ(def_.phase(), RecoveryPhase::kNone);
  EXPECT_FALSE(def_.stale());
  EXPECT_EQ(def_.pending_tuples(), 0u);
  EXPECT_EQ(def_.refresh_epoch(), 1u);
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
}

TEST_F(DeferredRecoveryTest, RecoverRollsForwardFromEveryRefreshCrashPoint) {
  const CrashPoint kRefreshPoints[] = {
      CrashPoint::kBeforeViewPatch, CrashPoint::kMidViewPatch,
      CrashPoint::kAfterViewPatch,  CrashPoint::kBeforeFold,
      CrashPoint::kMidFold,         CrashPoint::kBeforeAdReset,
      CrashPoint::kMidAdReset,
  };
  for (const CrashPoint cp : kRefreshPoints) {
    SCOPED_TRACE(storage::CrashPointName(cp));
    ViewTestDb db;
    DeferredStrategy def(db.SpDef(), db.WalAdOptions(), &db.tracker_);
    ASSERT_TRUE(def.InitializeFromBase().ok());
    ApplyTxns(&db, &def, 8);

    db.disk_.ScriptCrash(cp);
    EXPECT_FALSE(def.Refresh().ok());
    EXPECT_TRUE(db.disk_.crashed());

    db.disk_.Restart();
    ASSERT_TRUE(def.Recover().ok());
    EXPECT_EQ(def.phase(), RecoveryPhase::kNone);
    EXPECT_EQ(def.pending_tuples(), 0u);
    EXPECT_EQ(db.QueryAll(&def), ExpectedSp(db));
  }
}

TEST_F(DeferredRecoveryTest, JoinViewRollsForwardToo) {
  ViewTestDb db;
  DeferredStrategy def(db.JDef(), db.WalAdOptions(), &db.tracker_);
  ASSERT_TRUE(def.InitializeFromBase().ok());
  ApplyTxns(&db, &def, 6);

  db.disk_.ScriptCrash(CrashPoint::kMidViewPatch);
  EXPECT_FALSE(def.Refresh().ok());
  db.disk_.Restart();
  ASSERT_TRUE(def.Recover().ok());
  EXPECT_EQ(db.QueryAll(&def), ExpectedJoin(db));
}

TEST_F(DeferredRecoveryTest, QueryAutoRecoversAfterRestart) {
  ApplyTxns(&db_, &def_, 8);
  db_.disk_.ScriptCrash(CrashPoint::kBeforeFold);
  EXPECT_FALSE(def_.Refresh().ok());
  db_.disk_.Restart();
  // No explicit Recover(): Query's bounded-retry loop drives it.
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
  EXPECT_EQ(def_.phase(), RecoveryPhase::kNone);
  EXPECT_EQ(def_.pending_tuples(), 0u);
  EXPECT_GE(def_.recoveries(), 1u);
}

TEST_F(DeferredRecoveryTest, CrashDuringTransactionDiscardsUncommittedIntent) {
  ApplyTxns(&db_, &def_, 4);
  // The intent is staged in the AD log, then the device dies before the
  // hash apply — the commit record never follows.
  const db::Transaction txn = db_.UpdateTxn(5, 9999.0);
  db_.disk_.ScriptCrash(CrashPoint::kAfterWalAppend);
  EXPECT_FALSE(def_.OnTransaction(txn).ok());
  db_.v_oracle_[5] = 5.0;  // unacknowledged: the oracle must not advance

  db_.disk_.Restart();
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
  EXPECT_EQ(def_.pending_tuples(), 0u);
}

TEST_F(DeferredRecoveryTest, CrashBeforeWalAppendIsACleanReject) {
  ApplyTxns(&db_, &def_, 4);
  const db::Transaction txn = db_.UpdateTxn(6, 8888.0);
  db_.disk_.ScriptCrash(CrashPoint::kBeforeWalAppend);
  EXPECT_FALSE(def_.OnTransaction(txn).ok());
  db_.v_oracle_[6] = 6.0;
  db_.disk_.Restart();
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
}

TEST_F(DeferredRecoveryTest, TransactionsRejectedWhileFoldCannotRollForward) {
  ApplyTxns(&db_, &def_, 8);
  db_.disk_.ScriptCrash(CrashPoint::kMidFold);
  EXPECT_FALSE(def_.Refresh().ok());
  EXPECT_EQ(def_.phase(), RecoveryPhase::kNeedFold);

  // Device still down: mixing new intents into the half-folded epoch is
  // unsound, and roll-forward is impossible, so the transaction must be
  // rejected loudly.
  const db::Transaction txn = db_.UpdateTxn(7, 7777.0);
  const Status st = def_.OnTransaction(txn);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  db_.v_oracle_[7] = 7.0;

  // After a restart the same strategy accepts transactions again (recovery
  // is driven from inside OnTransaction).
  db_.disk_.Restart();
  ASSERT_TRUE(def_.OnTransaction(db_.UpdateTxn(8, 4321.0)).ok());
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
}

TEST_F(DeferredRecoveryTest, DegradedQueryFallsBackToQueryModification) {
  ApplyTxns(&db_, &def_, 8);
  db_.disk_.ScriptCrash(CrashPoint::kMidViewPatch);
  EXPECT_FALSE(def_.Refresh().ok());
  EXPECT_EQ(def_.phase(), RecoveryPhase::kNeedViewRebuild);
  db_.disk_.Restart();

  // Every write fails: the view copy cannot be rebuilt (the epoch re-begin
  // marker cannot even be logged). The base is untouched by the interrupted
  // epoch, so QM over base ∪ AD still answers exactly.
  db_.disk_.set_write_fault_rate(1.0);
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
  EXPECT_GE(def_.degraded_queries(), 1u);
  EXPECT_NE(def_.phase(), RecoveryPhase::kNone) << "refresh cannot finish";

  // Once the device heals, the next query rolls the epoch forward and the
  // copy is served again.
  db_.disk_.ClearFaults();
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
  EXPECT_EQ(def_.phase(), RecoveryPhase::kNone);
  EXPECT_EQ(def_.pending_tuples(), 0u);
}

TEST_F(DeferredRecoveryTest, DegradedQueryServesPatchedViewAfterFoldStart) {
  ApplyTxns(&db_, &def_, 4);
  db_.disk_.ScriptCrash(CrashPoint::kBeforeFold);
  EXPECT_FALSE(def_.Refresh().ok());
  EXPECT_EQ(def_.phase(), RecoveryPhase::kNeedFold);
  db_.disk_.Restart();

  // Writes are down, so the fold cannot commit — but the view copy was
  // fully patched before the crash, and QM would double-count whatever a
  // partial fold landed. The copy is the safe (and exact) degraded read.
  db_.disk_.set_write_fault_rate(1.0);
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
  EXPECT_GE(def_.degraded_queries(), 1u);

  db_.disk_.ClearFaults();
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
  EXPECT_EQ(def_.phase(), RecoveryPhase::kNone);
}

TEST_F(DeferredRecoveryTest, RecoverIsIdempotent) {
  ApplyTxns(&db_, &def_, 8);
  db_.disk_.ScriptCrash(CrashPoint::kAfterViewPatch);
  EXPECT_FALSE(def_.Refresh().ok());
  db_.disk_.Restart();
  ASSERT_TRUE(def_.Recover().ok());
  ASSERT_TRUE(def_.Recover().ok());
  EXPECT_EQ(def_.phase(), RecoveryPhase::kNone);
  EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
}

TEST_F(DeferredRecoveryTest, RepeatedCrashesAcrossEpochsStayConsistent) {
  for (int round = 0; round < 4; ++round) {
    ApplyTxns(&db_, &def_, 6, 1000.0 * (round + 1));
    const CrashPoint cp = (round % 2 == 0) ? CrashPoint::kMidViewPatch
                                           : CrashPoint::kMidFold;
    db_.disk_.ScriptCrash(cp);
    EXPECT_FALSE(def_.Refresh().ok());
    db_.disk_.Restart();
    EXPECT_EQ(db_.QueryAll(&def_), ExpectedSp(db_));
    EXPECT_EQ(def_.phase(), RecoveryPhase::kNone);
  }
  EXPECT_GE(def_.recoveries(), 4u);
}

}  // namespace
}  // namespace viewmat::view
