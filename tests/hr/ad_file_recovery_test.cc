#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "hr/ad_file.h"
#include "storage/buffer_pool.h"
#include "storage/cost_tracker.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"

namespace viewmat::hr {
namespace {

using storage::CrashPoint;

db::Schema TestSchema() {
  return db::Schema({db::Field::Int64("key"), db::Field::Int64("aux")});
}

db::Tuple Row(int64_t key, int64_t aux) {
  return db::Tuple({db::Value(key), db::Value(aux)});
}

AdFile::Options WalOptions() {
  AdFile::Options options;
  options.hash_buckets = 4;
  options.expected_keys = 128;
  options.enable_wal = true;
  return options;
}

class AdFileRecoveryTest : public ::testing::Test {
 protected:
  AdFileRecoveryTest()
      : tracker_(1.0, 30.0, 1.0),
        inner_(512, &tracker_),
        disk_(&inner_, /*seed=*/11),
        pool_(&disk_, 32),
        ad_(&pool_, TestSchema(), 0, WalOptions()) {}

  std::pair<std::vector<db::Tuple>, std::vector<db::Tuple>> Net() {
    std::vector<db::Tuple> a, d;
    EXPECT_TRUE(ad_.ScanNet(&a, &d).ok());
    std::sort(a.begin(), a.end());
    std::sort(d.begin(), d.end());
    return {a, d};
  }

  /// Device writes charged to the AD log so far.
  uint64_t AdLogWrites() const {
    return tracker_.attributed()
        .ComponentTotal(storage::Component::kAdLog)
        .disk_writes;
  }

  storage::CostTracker tracker_;
  storage::SimulatedDisk inner_;
  storage::FaultyDisk disk_;
  storage::BufferPool pool_;
  AdFile ad_;
};

TEST_F(AdFileRecoveryTest, RecoverRebuildsHashAndBloomFromLogAlone) {
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.RecordDelete(Row(2, 20)).ok());
  ASSERT_TRUE(ad_.CommitTxn(1, 2).ok());
  // Forget all in-memory/derived state, as a crash would.
  ad_.ScrambleForTest();
  EXPECT_TRUE(ad_.needs_recovery());
  EXPECT_EQ(ad_.entry_count(), 0u);

  AdFile::RecoveryInfo info;
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_FALSE(ad_.needs_recovery());
  EXPECT_EQ(info.replayed_intents, 2u);
  EXPECT_EQ(info.discarded_intents, 0u);
  EXPECT_EQ(info.last_committed_txn, 1u);
  EXPECT_EQ(ad_.last_committed_txn(), 1u);

  const auto [a, d] = Net();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0] == Row(1, 10));
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(d[0] == Row(2, 20));
  // The Bloom filter was rebuilt too.
  EXPECT_TRUE(ad_.MightContainKey(1));
  EXPECT_TRUE(ad_.MightContainKey(2));
}

TEST_F(AdFileRecoveryTest, UncommittedTailIsDiscarded) {
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.CommitTxn(1, 1).ok());
  // Transaction 2 never commits. Its intents only stage; a later sync
  // carries them to the device, where replay must still ignore them.
  ASSERT_TRUE(ad_.RecordInsert(Row(2, 20)).ok());
  ASSERT_TRUE(ad_.RecordDelete(Row(3, 30)).ok());
  ASSERT_TRUE(ad_.SyncLog().ok());

  ad_.ScrambleForTest();
  AdFile::RecoveryInfo info;
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.replayed_intents, 1u);
  EXPECT_EQ(info.discarded_intents, 2u);
  EXPECT_EQ(info.last_committed_txn, 1u);

  const auto [a, d] = Net();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0] == Row(1, 10));
  EXPECT_TRUE(d.empty());
}

TEST_F(AdFileRecoveryTest, NettingSemanticsSurviveReplay) {
  // insert(1) then delete(1) nets to nothing; delete(4) then insert(4) too.
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.RecordDelete(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.RecordDelete(Row(4, 40)).ok());
  ASSERT_TRUE(ad_.RecordInsert(Row(4, 40)).ok());
  ASSERT_TRUE(ad_.RecordInsert(Row(5, 50)).ok());
  ASSERT_TRUE(ad_.CommitTxn(1, 5).ok());

  ad_.ScrambleForTest();
  ASSERT_TRUE(ad_.Recover(nullptr).ok());
  const auto [a, d] = Net();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0] == Row(5, 50));
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(ad_.entry_count(), 1u);
}

TEST_F(AdFileRecoveryTest, CrashBeforeWalAppendLosesNothingDurable) {
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.CommitTxn(1, 1).ok());
  disk_.ScriptCrash(CrashPoint::kBeforeWalAppend);
  EXPECT_FALSE(ad_.RecordInsert(Row(2, 20)).ok());
  disk_.Restart();
  ad_.ScrambleForTest();
  ASSERT_TRUE(ad_.Recover(nullptr).ok());
  const auto [a, d] = Net();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0] == Row(1, 10));
}

TEST_F(AdFileRecoveryTest, CrashAfterWalAppendDiscardsTheUncommittedIntent) {
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.CommitTxn(1, 1).ok());
  // The intent stages in the log, then the crash fires before the hash
  // apply — and the commit record never follows. The log object outlives
  // the device restart, so a later sync carries the staged stray to the
  // device; recovery still discards it.
  disk_.ScriptCrash(CrashPoint::kAfterWalAppend);
  EXPECT_FALSE(ad_.RecordInsert(Row(2, 20)).ok());
  disk_.Restart();
  ASSERT_TRUE(ad_.SyncLog().ok());
  ad_.ScrambleForTest();
  AdFile::RecoveryInfo info;
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.discarded_intents, 1u);
  const auto [a, d] = Net();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0] == Row(1, 10));
}

TEST_F(AdFileRecoveryTest, RefreshMarkersAreReportedUntilReset) {
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.CommitTxn(1, 1).ok());
  ASSERT_TRUE(ad_.LogRefreshBegin(7).ok());
  ASSERT_TRUE(ad_.LogViewPatched(7).ok());

  ad_.ScrambleForTest();
  AdFile::RecoveryInfo info;
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.last_epoch_begun, 7u);
  EXPECT_EQ(info.view_patched_epoch, 7u);
  EXPECT_EQ(info.fold_committed_epoch, 0u);
  // Committed intents are still replayed: the fold has not committed.
  EXPECT_EQ(info.replayed_intents, 1u);

  ASSERT_TRUE(ad_.LogFoldCommit(7).ok());
  ad_.ScrambleForTest();
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.fold_committed_epoch, 7u);
  // Fold-commit retires every previously committed intent.
  EXPECT_EQ(info.replayed_intents, 0u);
  EXPECT_EQ(ad_.entry_count(), 0u);

  // Reset truncates the log: afterwards there is no refresh in flight.
  ASSERT_TRUE(ad_.Reset().ok());
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.last_epoch_begun, 0u);
  EXPECT_EQ(info.view_patched_epoch, 0u);
  EXPECT_EQ(info.fold_committed_epoch, 0u);
}

TEST_F(AdFileRecoveryTest, IntentsCommittedAfterFoldCommitSurvive) {
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.CommitTxn(1, 1).ok());
  ASSERT_TRUE(ad_.LogRefreshBegin(3).ok());
  ASSERT_TRUE(ad_.LogViewPatched(3).ok());
  ASSERT_TRUE(ad_.LogFoldCommit(3).ok());
  // A transaction accepted after the fold committed but before the reset.
  ASSERT_TRUE(ad_.RecordInsert(Row(9, 90)).ok());
  ASSERT_TRUE(ad_.CommitTxn(2, 1).ok());

  ad_.ScrambleForTest();
  AdFile::RecoveryInfo info;
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.replayed_intents, 1u);
  const auto [a, d] = Net();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0] == Row(9, 90));
}

TEST_F(AdFileRecoveryTest, FailedCommitMarksNeedsRecovery) {
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  // The intent was applied eagerly; the commit record fails, so the hash
  // file is ahead of the committed log.
  disk_.InjectWriteFault(/*after=*/0);
  EXPECT_FALSE(ad_.CommitTxn(1, 1).ok());
  EXPECT_TRUE(ad_.needs_recovery());
  ASSERT_TRUE(ad_.Recover(nullptr).ok());
  // Rolled back: the intent never committed.
  EXPECT_EQ(ad_.entry_count(), 0u);
  EXPECT_FALSE(ad_.needs_recovery());
}

TEST_F(AdFileRecoveryTest, CommitNeverAdoptsStrayIntentsFromFailedTxns) {
  // Txn 1's intent stages in the log but the crash fires before the hash
  // apply, so the transaction never commits. A later sync carries the
  // staged intent to the device, where it is a durable stray the log
  // cannot erase (appends only).
  disk_.ScriptCrash(CrashPoint::kAfterWalAppend);
  EXPECT_FALSE(ad_.RecordInsert(Row(1, 10)).ok());
  disk_.Restart();
  ASSERT_TRUE(ad_.SyncLog().ok());
  AdFile::RecoveryInfo info;
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.discarded_intents, 1u);
  // Txn 2 commits exactly one intent. Its commit record carries that count,
  // so replay adopts txn 2's intent and nothing else — the stray must not
  // ride along.
  ASSERT_TRUE(ad_.RecordInsert(Row(2, 20)).ok());
  ASSERT_TRUE(ad_.CommitTxn(2, 1).ok());
  ad_.ScrambleForTest();
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.replayed_intents, 1u);
  EXPECT_EQ(info.discarded_intents, 1u);
  const auto [a, d] = Net();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_TRUE(a[0] == Row(2, 20));
  EXPECT_TRUE(d.empty());
}

TEST_F(AdFileRecoveryTest, LogWritesArePinnedPerCommitAndMarker) {
  // Device writes charged to the AD log, step by step, in both commit
  // modes: intents stage, the commit (or the batch's SyncLog) writes the
  // tail page once, and every epoch marker is one write of its own.
  for (const bool sync_on_commit : {true, false}) {
    SCOPED_TRACE(sync_on_commit ? "sync_on_commit" : "group commit");
    AdFile::Options options = WalOptions();
    options.sync_on_commit = sync_on_commit;
    AdFile ad(&pool_, TestSchema(), 0, options);
    uint64_t before = AdLogWrites();
    // Five intents fit the tail page.
    for (int64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(ad.RecordInsert(Row(k, 10 * k)).ok());
    }
    EXPECT_EQ(AdLogWrites() - before, 0u);
    ASSERT_TRUE(ad.CommitTxn(1, 5).ok());
    EXPECT_EQ(AdLogWrites() - before, sync_on_commit ? 1u : 0u);
    EXPECT_EQ(ad.durable_txn_floor(), sync_on_commit ? 1u : 0u);
    // Nothing is left staged after a synced commit; otherwise the batch
    // boundary writes the whole transaction at once.
    ASSERT_TRUE(ad.SyncLog().ok());
    EXPECT_EQ(AdLogWrites() - before, 1u);
    EXPECT_EQ(ad.durable_txn_floor(), 1u);

    before = AdLogWrites();
    ASSERT_TRUE(ad.LogRefreshBegin(1).ok());
    EXPECT_EQ(AdLogWrites() - before, 1u);
    ASSERT_TRUE(ad.LogViewPatched(1).ok());
    EXPECT_EQ(AdLogWrites() - before, 2u);
    ASSERT_TRUE(ad.LogFoldCommit(1).ok());
    EXPECT_EQ(AdLogWrites() - before, 3u);
  }
}

TEST_F(AdFileRecoveryTest, PageCrossingCommitWritesArePinned) {
  // A 512-byte log page holds an 8-byte header and 16 intent records of
  // 31 bytes (15-byte record header + a 16-byte tuple). The 17th intent
  // rolls over: it syncs the 16 staged intents (1 write), writes itself to
  // a fresh page (1) and links that page from the old tail (1). Intents
  // 18–20 stage on the fresh page and the commit syncs them (1): 4 writes.
  ASSERT_EQ(TestSchema().record_size(), 16u);
  const uint64_t before = AdLogWrites();
  for (int64_t k = 0; k < 20; ++k) {
    ASSERT_TRUE(ad_.RecordInsert(Row(k, 10 * k)).ok());
  }
  EXPECT_EQ(AdLogWrites() - before, 3u);
  ASSERT_TRUE(ad_.CommitTxn(1, 20).ok());
  EXPECT_EQ(AdLogWrites() - before, 4u);

  ad_.ScrambleForTest();
  AdFile::RecoveryInfo info;
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.replayed_intents, 20u);
  EXPECT_EQ(info.discarded_intents, 0u);
}

TEST_F(AdFileRecoveryTest, ResetTruncatesWalSoOldIntentsCannotReplay) {
  ASSERT_TRUE(ad_.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(ad_.CommitTxn(1, 1).ok());
  ASSERT_TRUE(ad_.Reset().ok());
  ad_.ScrambleForTest();
  AdFile::RecoveryInfo info;
  ASSERT_TRUE(ad_.Recover(&info).ok());
  EXPECT_EQ(info.replayed_intents, 0u);
  EXPECT_EQ(ad_.entry_count(), 0u);
}

TEST_F(AdFileRecoveryTest, RecoverWithoutWalIsRejected) {
  AdFile plain(&pool_, TestSchema(), 0, AdFile::Options{4, 128, 0.01});
  EXPECT_FALSE(plain.wal_enabled());
  const Status st = plain.Recover(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(AdFileRecoveryTest, WalDisabledByDefaultKeepsOldBehavior) {
  AdFile plain(&pool_, TestSchema(), 0, AdFile::Options{4, 128, 0.01});
  ASSERT_TRUE(plain.RecordInsert(Row(1, 10)).ok());
  ASSERT_TRUE(plain.CommitTxn(1, 1).ok());  // no-op without a WAL
  EXPECT_EQ(plain.last_committed_txn(), 1u);
  EXPECT_EQ(plain.entry_count(), 1u);
}

}  // namespace
}  // namespace viewmat::hr
