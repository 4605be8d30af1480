#include "hr/hypothetical_relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/random.h"
#include "db/catalog.h"

namespace viewmat::hr {
namespace {

db::Schema TestSchema() {
  return db::Schema({db::Field::Int64("key"), db::Field::Int64("aux")});
}

db::Tuple Row(int64_t key, int64_t aux) {
  return db::Tuple({db::Value(key), db::Value(aux)});
}

class HypotheticalRelationTest : public ::testing::Test {
 protected:
  HypotheticalRelationTest()
      : disk_(512, &tracker_),
        pool_(&disk_, 64),
        base_(&pool_, "R", TestSchema(), db::AccessMethod::kClusteredBTree,
              0),
        hr_(nullptr) {
    for (int64_t k = 0; k < 100; ++k) {
      VIEWMAT_CHECK(base_.Insert(Row(k, k * 10)).ok());
    }
    hr_ = std::make_unique<HypotheticalRelation>(&base_,
                                                 AdFile::Options{4, 256, 0.01});
  }

  db::NetChange UpdateOf(int64_t key, int64_t old_aux, int64_t new_aux) {
    db::NetChange nc;
    nc.AddDelete(Row(key, old_aux));
    nc.AddInsert(Row(key, new_aux));
    return nc;
  }

  std::vector<db::Tuple> VisibleAt(int64_t key) {
    std::vector<db::Tuple> out;
    VIEWMAT_CHECK(hr_->FindAllByKey(key, [&](const db::Tuple& t) {
      out.push_back(t);
      return true;
    }).ok());
    return out;
  }

  storage::CostTracker tracker_;
  storage::SimulatedDisk disk_;
  storage::BufferPool pool_;
  db::Relation base_;
  std::unique_ptr<HypotheticalRelation> hr_;
};

TEST_F(HypotheticalRelationTest, ReadsSeePendingUpdates) {
  ASSERT_TRUE(hr_->RecordChanges(UpdateOf(5, 50, 999)).ok());
  const auto visible = VisibleAt(5);
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_TRUE(visible[0] == Row(5, 999));  // new value, not the base's 50
  // Base relation is untouched until the fold.
  db::Tuple base_row;
  ASSERT_TRUE(base_.FindByKey(5, &base_row).ok());
  EXPECT_TRUE(base_row == Row(5, 50));
}

TEST_F(HypotheticalRelationTest, ReadsSuppressPendingDeletes) {
  db::NetChange nc;
  nc.AddDelete(Row(7, 70));
  ASSERT_TRUE(hr_->RecordChanges(nc).ok());
  EXPECT_TRUE(VisibleAt(7).empty());
  EXPECT_EQ(hr_->visible_tuple_count(), 99u);
}

TEST_F(HypotheticalRelationTest, ReadsSeePendingInsertsOfNewKeys) {
  db::NetChange nc;
  nc.AddInsert(Row(500, 1));
  ASSERT_TRUE(hr_->RecordChanges(nc).ok());
  const auto visible = VisibleAt(500);
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_TRUE(visible[0] == Row(500, 1));
}

TEST_F(HypotheticalRelationTest, UntouchedKeysReadFromBaseOnly) {
  ASSERT_TRUE(hr_->RecordChanges(UpdateOf(5, 50, 999)).ok());
  const auto visible = VisibleAt(20);
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_TRUE(visible[0] == Row(20, 200));
}

TEST_F(HypotheticalRelationTest, FoldAppliesAndResets) {
  ASSERT_TRUE(hr_->RecordChanges(UpdateOf(5, 50, 999)).ok());
  std::vector<db::Tuple> a, d;
  ASSERT_TRUE(hr_->Fold(&a, &d).ok());
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_TRUE(a[0] == Row(5, 999));
  EXPECT_TRUE(d[0] == Row(5, 50));
  // Base now reflects the change; the AD file is empty.
  db::Tuple row;
  ASSERT_TRUE(base_.FindByKey(5, &row).ok());
  EXPECT_TRUE(row == Row(5, 999));
  EXPECT_EQ(hr_->ad().entry_count(), 0u);
  // Reads after the fold still see the value (now from the base).
  const auto visible = VisibleAt(5);
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_TRUE(visible[0] == Row(5, 999));
}

TEST_F(HypotheticalRelationTest, FoldWithNullOutsWorks) {
  ASSERT_TRUE(hr_->RecordChanges(UpdateOf(6, 60, 7)).ok());
  ASSERT_TRUE(hr_->Fold(nullptr, nullptr).ok());
  db::Tuple row;
  ASSERT_TRUE(base_.FindByKey(6, &row).ok());
  EXPECT_TRUE(row == Row(6, 7));
}

TEST_F(HypotheticalRelationTest, BloomSavesAdProbesForCleanKeys) {
  // Measure the cold cost of reading key 5 with an empty AD file...
  ASSERT_TRUE(pool_.FlushAndEvictAll().ok());
  tracker_.Reset();
  (void)VisibleAt(5);
  const uint64_t clean_reads = tracker_.counters().disk_reads;
  // ...then with a pending change for key 5: the probe adds AD I/O.
  ASSERT_TRUE(hr_->RecordChanges(UpdateOf(5, 50, 999)).ok());
  ASSERT_TRUE(pool_.FlushAndEvictAll().ok());
  tracker_.Reset();
  (void)VisibleAt(5);
  const uint64_t dirty_reads = tracker_.counters().disk_reads;
  EXPECT_GT(dirty_reads, clean_reads);
  // The Bloom filter proves untouched keys clean without any probe.
  EXPECT_TRUE(hr_->ad().MightContainKey(5));
  EXPECT_FALSE(hr_->ad().MightContainKey(20));
}

TEST_F(HypotheticalRelationTest, RangeScanMergesDifferential) {
  // Updates, an insert of a new key and a delete — all visible to a range
  // scan without folding.
  ASSERT_TRUE(hr_->RecordChanges(UpdateOf(5, 50, 555)).ok());
  db::NetChange ins;
  ins.AddInsert(Row(7, 777));  // second tuple under key 7
  ASSERT_TRUE(hr_->RecordChanges(ins).ok());
  db::NetChange del;
  del.AddDelete(Row(6, 60));
  ASSERT_TRUE(hr_->RecordChanges(del).ok());

  std::vector<db::Tuple> seen;
  ASSERT_TRUE(hr_->RangeScanByKey(4, 8, [&](const db::Tuple& t) {
    seen.push_back(t);
    return true;
  }).ok());
  auto has = [&](const db::Tuple& t) {
    return std::find(seen.begin(), seen.end(), t) != seen.end();
  };
  EXPECT_TRUE(has(Row(4, 40)));    // untouched base tuple
  EXPECT_TRUE(has(Row(5, 555)));   // updated value, not Row(5, 50)
  EXPECT_FALSE(has(Row(5, 50)));
  EXPECT_FALSE(has(Row(6, 60)));   // deleted
  EXPECT_TRUE(has(Row(7, 70)));    // original key-7 tuple
  EXPECT_TRUE(has(Row(7, 777)));   // pending insert
  EXPECT_TRUE(has(Row(8, 80)));
  EXPECT_EQ(seen.size(), 5u);
  // Base remains untouched: the scan read *through* the differential.
  EXPECT_EQ(hr_->ad().entry_count(), 4u);
}

TEST_F(HypotheticalRelationTest, RangeScanEarlyStopAndEmptyRange) {
  ASSERT_TRUE(hr_->RecordChanges(UpdateOf(5, 50, 555)).ok());
  int visits = 0;
  ASSERT_TRUE(hr_->RangeScanByKey(0, 99, [&](const db::Tuple&) {
    return ++visits < 3;
  }).ok());
  EXPECT_EQ(visits, 3);
  visits = 0;
  ASSERT_TRUE(hr_->RangeScanByKey(500, 600, [&](const db::Tuple&) {
    ++visits;
    return true;
  }).ok());
  EXPECT_EQ(visits, 0);
}

TEST_F(HypotheticalRelationTest, EachPendingDeleteHidesOneIdenticalCopy) {
  // Keys 7 and 8 each hold two identical base rows. Key 7 gets one pending
  // delete, key 8 two: both scans must hide one copy per delete, and agree
  // with the base once the differential is folded into it.
  ASSERT_TRUE(base_.Insert(Row(7, 70)).ok());
  ASSERT_TRUE(base_.Insert(Row(8, 80)).ok());
  hr_ = std::make_unique<HypotheticalRelation>(&base_,
                                               AdFile::Options{4, 256, 0.01});
  db::NetChange del;
  del.AddDelete(Row(7, 70));
  del.AddDelete(Row(8, 80));
  del.AddDelete(Row(8, 80));
  ASSERT_TRUE(hr_->RecordChanges(del).ok());
  EXPECT_EQ(hr_->visible_tuple_count(), 99u);

  auto scanned = [&](int64_t key) {
    std::vector<db::Tuple> out;
    VIEWMAT_CHECK(hr_->RangeScanByKey(key, key, [&](const db::Tuple& t) {
      out.push_back(t);
      return true;
    }).ok());
    return out;
  };
  auto in_base = [&](int64_t key) {
    std::vector<db::Tuple> out;
    VIEWMAT_CHECK(base_.FindAllByKey(key, [&](const db::Tuple& t) {
      out.push_back(t);
      return true;
    }).ok());
    return out;
  };
  const std::vector<db::Tuple> one_copy = {Row(7, 70)};
  EXPECT_EQ(VisibleAt(7), one_copy);
  EXPECT_EQ(scanned(7), one_copy);
  EXPECT_TRUE(VisibleAt(8).empty());
  EXPECT_TRUE(scanned(8).empty());

  ASSERT_TRUE(hr_->Fold(nullptr, nullptr).ok());
  EXPECT_EQ(in_base(7), one_copy);
  EXPECT_TRUE(in_base(8).empty());
  EXPECT_EQ(VisibleAt(7), one_copy);
  EXPECT_EQ(scanned(7), one_copy);
  EXPECT_TRUE(scanned(8).empty());
  EXPECT_EQ(hr_->visible_tuple_count(), 99u);
}

TEST_F(HypotheticalRelationTest, RandomHistoryMatchesEagerApplication) {
  // Property 4 of DESIGN.md: reads through the HR equal reads from an
  // eagerly-updated twin relation, across random multi-transaction
  // histories with interleaved folds.
  db::Relation eager(&pool_, "eager", TestSchema(),
                     db::AccessMethod::kClusteredBTree, 0);
  std::map<int64_t, int64_t> oracle;
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(eager.Insert(Row(k, k * 10)).ok());
    oracle[k] = k * 10;
  }
  Random rng(21);
  for (int txn = 0; txn < 60; ++txn) {
    db::NetChange nc;
    for (int i = 0; i < 5; ++i) {
      const int64_t key = rng.UniformInt(0, 99);
      const int64_t next = rng.UniformInt(0, 1 << 20);
      nc.AddDelete(Row(key, oracle[key]));
      nc.AddInsert(Row(key, next));
      oracle[key] = next;
    }
    ASSERT_TRUE(hr_->RecordChanges(nc).ok());
    for (const db::Tuple& t : nc.deletes()) {
      ASSERT_TRUE(eager.DeleteExact(t).ok());
    }
    for (const db::Tuple& t : nc.inserts()) {
      ASSERT_TRUE(eager.Insert(t).ok());
    }
    // Spot-check a few keys every transaction.
    for (int probe = 0; probe < 5; ++probe) {
      const int64_t key = rng.UniformInt(0, 99);
      const auto via_hr = VisibleAt(key);
      ASSERT_EQ(via_hr.size(), 1u) << "key " << key;
      EXPECT_TRUE(via_hr[0] == Row(key, oracle[key])) << "key " << key;
    }
    if (txn % 17 == 16) {
      ASSERT_TRUE(hr_->Fold(nullptr, nullptr).ok());
    }
  }
  EXPECT_EQ(hr_->visible_tuple_count(), 100u);
}

}  // namespace
}  // namespace viewmat::hr
