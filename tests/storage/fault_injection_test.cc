#include <gtest/gtest.h>

#include <map>

#include "db/relation.h"
#include "storage/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/faulty_disk.h"
#include "testing/view_fixture.h"
#include "view/deferred.h"
#include "view/hybrid.h"
#include "view/immediate.h"
#include "view/query_modification.h"
#include "view/snapshot.h"

namespace viewmat::storage {
namespace {

/// Failure-injection coverage: a failed block I/O must surface as a non-OK
/// Status at every layer, and recovery (fault cleared) must work without
/// restart. The no-exceptions discipline means these paths are ordinary
/// control flow and deserve ordinary tests.

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : inner_(512, &tracker_), disk_(&inner_), pool_(&disk_, 8) {}

  CostTracker tracker_;
  SimulatedDisk inner_;
  FaultyDisk disk_;
  BufferPool pool_;
};

TEST_F(FaultInjectionTest, DiskReadFaultSurfacesOnce) {
  const PageId id = disk_.Allocate();
  Page pg(512);
  ASSERT_TRUE(disk_.Write(id, pg).ok());
  disk_.InjectReadFault(0);
  EXPECT_EQ(disk_.Read(id, &pg).code(), StatusCode::kInternal);
  EXPECT_TRUE(disk_.Read(id, &pg).ok());  // fault auto-clears
}

TEST_F(FaultInjectionTest, DelayedFaultCountsSuccessfulReads) {
  const PageId id = disk_.Allocate();
  Page pg(512);
  ASSERT_TRUE(disk_.Write(id, pg).ok());
  disk_.InjectReadFault(2);  // two reads succeed, the third fails
  EXPECT_TRUE(disk_.Read(id, &pg).ok());
  EXPECT_TRUE(disk_.Read(id, &pg).ok());
  EXPECT_FALSE(disk_.Read(id, &pg).ok());
}

TEST_F(FaultInjectionTest, ClearFaultsDisarms) {
  const PageId id = disk_.Allocate();
  Page pg(512);
  ASSERT_TRUE(disk_.Write(id, pg).ok());
  disk_.InjectReadFault(0);
  disk_.ClearFaults();
  EXPECT_TRUE(disk_.Read(id, &pg).ok());
}

TEST_F(FaultInjectionTest, BufferPoolPropagatesMissReadFault) {
  PageId id;
  {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    id = guard->id();
  }
  ASSERT_TRUE(pool_.FlushAndEvictAll().ok());
  disk_.InjectReadFault(0);
  EXPECT_EQ(pool_.Fetch(id).status().code(), StatusCode::kInternal);
  // Recovered fetch works and the pool is consistent.
  auto again = pool_.Fetch(id);
  EXPECT_TRUE(again.ok());
}

TEST_F(FaultInjectionTest, BufferPoolPropagatesEvictionWriteFault) {
  // Fill the pool with dirty pages, then force an eviction with the write
  // path poisoned.
  for (int i = 0; i < 8; ++i) {
    auto guard = pool_.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
  }
  disk_.InjectWriteFault(0);
  EXPECT_FALSE(pool_.NewPage().ok());
  disk_.ClearFaults();
  EXPECT_TRUE(pool_.NewPage().ok());
}

TEST_F(FaultInjectionTest, BPTreeSurfacesDescentFault) {
  BPTree tree(&pool_, 8);
  uint8_t payload[8] = {0};
  for (int64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree.Insert(k, payload).ok());
  }
  ASSERT_TRUE(pool_.FlushAndEvictAll().ok());
  disk_.InjectReadFault(0);
  uint8_t out[8];
  EXPECT_EQ(tree.Find(150, out).code(), StatusCode::kInternal);
  // The tree remains fully usable afterwards.
  EXPECT_TRUE(tree.Find(150, out).ok());
  EXPECT_TRUE(tree.CheckInvariants().ok());
}

TEST_F(FaultInjectionTest, RelationScanSurfacesMidScanFault) {
  db::Relation rel(&pool_, "t",
                   db::Schema({db::Field::Int64("k"), db::Field::Int64("x")}),
                   db::AccessMethod::kClusteredBTree, 0);
  for (int64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(
        rel.Insert(db::Tuple({db::Value(k), db::Value(k)})).ok());
  }
  ASSERT_TRUE(pool_.FlushAndEvictAll().ok());
  disk_.InjectReadFault(5);  // die a few pages into the scan
  size_t visited = 0;
  const Status st = rel.Scan([&](const db::Tuple&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_GT(visited, 0u);  // it got partway, then reported the error
  // And a clean retry completes.
  size_t total = 0;
  EXPECT_TRUE(rel.Scan([&](const db::Tuple&) {
    ++total;
    return true;
  }).ok());
  EXPECT_EQ(total, 400u);
}

/// Every view-maintenance strategy must surface a failed block I/O as a
/// non-OK Status — both mid-OnTransaction and mid-Query — and stay usable
/// once the fault clears. One-shot read faults are armed after evicting the
/// buffer pool so the next operation is guaranteed to touch the device
/// before mutating anything.
class StrategyFaultInjectionTest : public ::testing::Test {
 protected:
  /// Expected Model 1 view contents per the fixture's oracle.
  std::map<db::Tuple, int64_t> ExpectedSp() const {
    std::map<db::Tuple, int64_t> out;
    for (const auto& [k, v] : db_.v_oracle_) {
      if (k < testing::ViewTestDb::kFCut) {
        out[db::Tuple({db::Value(k), db::Value(v)})] = 1;
      }
    }
    return out;
  }

  void Evict() { ASSERT_TRUE(db_.pool_.FlushAndEvictAll().ok()); }

  testing::ViewTestDb db_;
};

TEST_F(StrategyFaultInjectionTest, ImmediateSurfacesMidTransactionFault) {
  view::ImmediateStrategy s(db_.SpDef(), &db_.tracker_);
  ASSERT_TRUE(s.InitializeFromBase().ok());
  Evict();
  db_.disk_.InjectReadFault(0);
  const db::Transaction txn = db_.UpdateTxn(3, 777.0);
  EXPECT_FALSE(s.OnTransaction(txn).ok());
  // The fault fired on the very first descent read: nothing was applied,
  // so the same transaction replays cleanly.
  ASSERT_TRUE(s.OnTransaction(txn).ok());
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, ImmediateSurfacesMidQueryFault) {
  view::ImmediateStrategy s(db_.SpDef(), &db_.tracker_);
  ASSERT_TRUE(s.InitializeFromBase().ok());
  Evict();
  db_.disk_.InjectReadFault(0);
  EXPECT_FALSE(
      s.Query(0, 1 << 20, [](const db::Tuple&, int64_t) { return true; })
          .ok());
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, DeferredSurfacesMidTransactionFault) {
  view::DeferredStrategy s(db_.SpDef(), db_.WalAdOptions(), &db_.tracker_);
  ASSERT_TRUE(s.InitializeFromBase().ok());
  Evict();
  db_.disk_.InjectReadFault(0);
  const db::Transaction txn = db_.UpdateTxn(4, 444.0);
  EXPECT_FALSE(s.OnTransaction(txn).ok());
  // Error implies uncommitted: the oracle must not advance.
  db_.v_oracle_[4] = 4.0;
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, DeferredCrashSafeQueryRidesOutReadFault) {
  view::DeferredStrategy s(db_.SpDef(), db_.WalAdOptions(), &db_.tracker_);
  ASSERT_TRUE(s.InitializeFromBase().ok());
  ASSERT_TRUE(s.OnTransaction(db_.UpdateTxn(5, 555.0)).ok());
  Evict();
  // A transient fault during the read-only refresh prep aborts cleanly;
  // the crash-safe query's bounded retry then answers exactly.
  db_.disk_.InjectReadFault(1);
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, QmSurfacesMidTransactionFault) {
  view::QmSelectProjectStrategy s(db_.SpDef(), &db_.tracker_);
  Evict();
  db_.disk_.InjectReadFault(0);
  const db::Transaction txn = db_.UpdateTxn(6, 666.0);
  EXPECT_FALSE(s.OnTransaction(txn).ok());
  ASSERT_TRUE(s.OnTransaction(txn).ok());
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, QmSurfacesMidQueryFault) {
  view::QmSelectProjectStrategy s(db_.SpDef(), &db_.tracker_);
  Evict();
  db_.disk_.InjectReadFault(3);  // die a few pages into the scan
  EXPECT_FALSE(
      s.Query(0, 1 << 20, [](const db::Tuple&, int64_t) { return true; })
          .ok());
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, QmJoinSurfacesEveryQueryReadFault) {
  // The join answer per the fixture: (k1, v, key, w) for every k1 < kFCut.
  std::map<db::Tuple, int64_t> full;
  for (int64_t k = 0; k < testing::ViewTestDb::kFCut; ++k) {
    const int64_t key = k % testing::ViewTestDb::kR2N;
    full[db::Tuple({db::Value(k), db::Value(k * 1.0), db::Value(key),
                    db::Value(key * 100.0)})] = 1;
  }
  view::QmJoinStrategy s(db_.JDef(), &db_.tracker_);
  // A cold query only reads, so the disk-op delta counts its reads.
  Evict();
  const uint64_t before = db_.disk_.op_count();
  ASSERT_EQ(db_.QueryAll(&s), full);
  const uint64_t reads = db_.disk_.op_count() - before;
  ASSERT_GT(reads, 2u);
  // A fault at any one of those reads (R1 scan or R2 probe) must surface
  // as an error or leave the answer whole, never drop a row silently.
  for (uint64_t k = 0; k < reads; ++k) {
    Evict();
    db_.disk_.InjectReadFault(k);
    std::map<db::Tuple, int64_t> got;
    const Status st = s.Query(0, 1 << 20, [&](const db::Tuple& t, int64_t c) {
      got[t] += c;
      return true;
    });
    if (st.ok()) {
      EXPECT_EQ(got, full) << "fault at read " << k;
    }
    db_.disk_.ClearFaults();
    EXPECT_EQ(db_.QueryAll(&s), full) << "after the fault at read " << k;
  }
}

TEST_F(StrategyFaultInjectionTest, SnapshotSurfacesMidTransactionFault) {
  view::SnapshotStrategy s(db_.SpDef(), {}, &db_.tracker_);
  ASSERT_TRUE(s.InitializeFromBase().ok());
  Evict();
  db_.disk_.InjectReadFault(0);
  const db::Transaction txn = db_.UpdateTxn(7, 707.0);
  EXPECT_FALSE(s.OnTransaction(txn).ok());
  ASSERT_TRUE(s.OnTransaction(txn).ok());
  ASSERT_TRUE(s.RefreshNow().ok());  // fold the update into the snapshot
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, SnapshotSurfacesMidQueryFault) {
  view::SnapshotStrategy s(db_.SpDef(), {}, &db_.tracker_);
  ASSERT_TRUE(s.InitializeFromBase().ok());
  Evict();
  db_.disk_.InjectReadFault(0);
  EXPECT_FALSE(
      s.Query(0, 1 << 20, [](const db::Tuple&, int64_t) { return true; })
          .ok());
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, HybridSurfacesMidTransactionFault) {
  view::HybridStrategy s(db_.SpDef(), db_.AdOptions(), &db_.tracker_);
  ASSERT_TRUE(s.InitializeFromBase().ok());
  Evict();
  db_.disk_.InjectReadFault(0);
  const db::Transaction txn = db_.UpdateTxn(8, 808.0);
  EXPECT_FALSE(s.OnTransaction(txn).ok());
  ASSERT_TRUE(s.OnTransaction(txn).ok());
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

TEST_F(StrategyFaultInjectionTest, HybridSurfacesMidQueryFault) {
  view::HybridStrategy s(db_.SpDef(), db_.AdOptions(), &db_.tracker_);
  ASSERT_TRUE(s.InitializeFromBase().ok());
  Evict();
  db_.disk_.InjectReadFault(0);
  EXPECT_FALSE(
      s.Query(0, 1 << 20, [](const db::Tuple&, int64_t) { return true; })
          .ok());
  EXPECT_EQ(db_.QueryAll(&s), ExpectedSp());
}

}  // namespace
}  // namespace viewmat::storage
