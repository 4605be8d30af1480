#include "db/relation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "db/catalog.h"

namespace viewmat::db {
namespace {

Schema TestSchema() {
  return Schema({Field::Int64("key"), Field::Int64("aux"),
                 Field::String("tag", 8)});
}

Tuple Row(int64_t key, int64_t aux, const std::string& tag = "t") {
  return Tuple({Value(key), Value(aux), Value(tag)});
}

/// The same behavioural contract must hold for every access method.
class RelationTest : public ::testing::TestWithParam<AccessMethod> {
 protected:
  RelationTest()
      : disk_(512, &tracker_),
        pool_(&disk_, 64),
        rel_(&pool_, "t", TestSchema(), GetParam(), 0) {}

  storage::CostTracker tracker_;
  storage::SimulatedDisk disk_;
  storage::BufferPool pool_;
  Relation rel_;
};

TEST_P(RelationTest, InsertAndFindByKey) {
  ASSERT_TRUE(rel_.Insert(Row(1, 10)).ok());
  ASSERT_TRUE(rel_.Insert(Row(2, 20)).ok());
  Tuple out;
  ASSERT_TRUE(rel_.FindByKey(2, &out).ok());
  EXPECT_EQ(out.at(1).AsInt64(), 20);
  EXPECT_EQ(rel_.FindByKey(3, &out).code(), StatusCode::kNotFound);
  EXPECT_EQ(rel_.tuple_count(), 2u);
}

TEST_P(RelationTest, DeleteExactRemovesOneMatch) {
  ASSERT_TRUE(rel_.Insert(Row(5, 1)).ok());
  ASSERT_TRUE(rel_.Insert(Row(5, 2)).ok());
  ASSERT_TRUE(rel_.DeleteExact(Row(5, 1)).ok());
  EXPECT_EQ(rel_.tuple_count(), 1u);
  Tuple out;
  ASSERT_TRUE(rel_.FindByKey(5, &out).ok());
  EXPECT_EQ(out.at(1).AsInt64(), 2);
  EXPECT_EQ(rel_.DeleteExact(Row(5, 1)).code(), StatusCode::kNotFound);
}

TEST_P(RelationTest, OverWidthStringMatchesItsStoredCopy) {
  // The tag column is 8 bytes wide: the row is stored truncated, and the
  // exact-match writes find it by the bytes the value serializes to.
  const Tuple wide = Row(6, 1, "truncated-tag");
  ASSERT_TRUE(rel_.Insert(wide).ok());
  Tuple out;
  ASSERT_TRUE(rel_.FindByKey(6, &out).ok());
  EXPECT_EQ(out.at(2).AsString(), "truncate");
  ASSERT_TRUE(rel_.UpdateExact(wide, Row(6, 2, "truncated-tag")).ok());
  const Status st = rel_.DeleteExact(Row(6, 2, "truncated-tag"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rel_.tuple_count(), 0u);
}

TEST_P(RelationTest, DuplicateIdenticalTuplesDeleteOneAtATime) {
  ASSERT_TRUE(rel_.Insert(Row(7, 7)).ok());
  ASSERT_TRUE(rel_.Insert(Row(7, 7)).ok());
  ASSERT_TRUE(rel_.DeleteExact(Row(7, 7)).ok());
  EXPECT_EQ(rel_.tuple_count(), 1u);
  ASSERT_TRUE(rel_.DeleteExact(Row(7, 7)).ok());
  EXPECT_EQ(rel_.tuple_count(), 0u);
}

TEST_P(RelationTest, UpdateExactSameKeyInPlace) {
  ASSERT_TRUE(rel_.Insert(Row(3, 30, "old")).ok());
  ASSERT_TRUE(rel_.UpdateExact(Row(3, 30, "old"), Row(3, 31, "new")).ok());
  Tuple out;
  ASSERT_TRUE(rel_.FindByKey(3, &out).ok());
  EXPECT_EQ(out.at(1).AsInt64(), 31);
  EXPECT_EQ(out.at(2).AsString(), "new");
  EXPECT_EQ(rel_.tuple_count(), 1u);
}

TEST_P(RelationTest, UpdateExactKeyChangeMoves) {
  ASSERT_TRUE(rel_.Insert(Row(3, 30)).ok());
  ASSERT_TRUE(rel_.UpdateExact(Row(3, 30), Row(4, 30)).ok());
  Tuple out;
  EXPECT_EQ(rel_.FindByKey(3, &out).code(), StatusCode::kNotFound);
  ASSERT_TRUE(rel_.FindByKey(4, &out).ok());
}

TEST_P(RelationTest, UpdateMissingTupleFails) {
  EXPECT_EQ(rel_.UpdateExact(Row(9, 9), Row(9, 10)).code(),
            StatusCode::kNotFound);
}

TEST_P(RelationTest, FindAllByKeyVisitsDuplicates) {
  for (int64_t aux = 0; aux < 5; ++aux) {
    ASSERT_TRUE(rel_.Insert(Row(8, aux)).ok());
  }
  std::vector<int64_t> auxes;
  ASSERT_TRUE(rel_.FindAllByKey(8, [&](const Tuple& t) {
    auxes.push_back(t.at(1).AsInt64());
    return true;
  }).ok());
  std::sort(auxes.begin(), auxes.end());
  EXPECT_EQ(auxes, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST_P(RelationTest, ScanCoversEverything) {
  Random rng(3);
  std::vector<int64_t> keys;
  for (int i = 0; i < 300; ++i) {
    const int64_t k = rng.UniformInt(0, 10000);
    keys.push_back(k);
    ASSERT_TRUE(rel_.Insert(Row(k, i)).ok());
  }
  size_t seen = 0;
  ASSERT_TRUE(rel_.Scan([&](const Tuple&) {
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, keys.size());
}

TEST_P(RelationTest, RangeScanWhereSupported) {
  for (int64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(rel_.Insert(Row(k, k)).ok());
  }
  std::vector<int64_t> seen;
  const Status st = rel_.RangeScanByKey(10, 14, [&](const Tuple& t) {
    seen.push_back(t.at(0).AsInt64());
    return true;
  });
  if (GetParam() == AccessMethod::kClusteredHash) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    return;
  }
  ASSERT_TRUE(st.ok());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int64_t>{10, 11, 12, 13, 14}));
}

TEST_P(RelationTest, ReusedRowsCarryNoStaleBytes) {
  // A scan decodes every row into one tuple: a long string followed by a
  // short and then an empty one must each read back exactly, with the
  // field after them intact.
  const Schema schema({Field::Int64("key"), Field::String("s", 40),
                       Field::Int64("n")});
  Relation rel(&pool_, "s", schema, GetParam(), 0);
  const std::string kLong(40, 'L');
  const std::vector<std::pair<int64_t, std::string>> rows = {
      {8, kLong}, {7, ""}, {9, kLong}, {9, "short"}, {9, ""}};
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rel.Insert(Tuple({Value(rows[i].first), Value(rows[i].second),
                                  Value(static_cast<int64_t>(i))}))
                    .ok());
  }
  // Each visit must match one inserted row exactly; a key's duplicates keep
  // their insertion order under every access method.
  auto check = [&](const std::string& entry_point, size_t expected_rows,
                   auto scan) {
    SCOPED_TRACE(entry_point);
    std::vector<std::string> nines;
    size_t visited = 0;
    const Status st = scan([&](const Tuple& t) {
      const size_t n = static_cast<size_t>(t.at(2).AsInt64());
      EXPECT_LT(n, rows.size());
      if (n >= rows.size()) return false;
      EXPECT_EQ(t.at(0).AsInt64(), rows[n].first);
      EXPECT_EQ(t.at(1).AsString(), rows[n].second);
      if (rows[n].first == 9) nines.push_back(t.at(1).AsString());
      ++visited;
      return true;
    });
    if (entry_point == "RangeScanByKey" &&
        GetParam() == AccessMethod::kClusteredHash) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      return;
    }
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(visited, expected_rows);
    EXPECT_EQ(nines, (std::vector<std::string>{kLong, "short", ""}));
  };
  check("Scan", rows.size(),
        [&](const Relation::TupleVisitor& v) { return rel.Scan(v); });
  check("RangeScanByKey", rows.size(), [&](const Relation::TupleVisitor& v) {
    return rel.RangeScanByKey(0, 100, v);
  });
  check("FindAllByKey", 3, [&](const Relation::TupleVisitor& v) {
    return rel.FindAllByKey(9, v);
  });
  Tuple out;
  ASSERT_TRUE(rel.FindByKey(8, &out).ok());
  EXPECT_EQ(out.at(1).AsString(), kLong);
  ASSERT_TRUE(rel.FindByKey(7, &out).ok());
  EXPECT_EQ(out, Tuple({Value(int64_t{7}), Value(std::string()),
                        Value(int64_t{1})}));
}

INSTANTIATE_TEST_SUITE_P(
    AllAccessMethods, RelationTest,
    ::testing::Values(AccessMethod::kClusteredBTree,
                      AccessMethod::kClusteredHash, AccessMethod::kHeap),
    [](const ::testing::TestParamInfo<AccessMethod>& info) {
      switch (info.param) {
        case AccessMethod::kClusteredBTree:
          return "btree";
        case AccessMethod::kClusteredHash:
          return "hash";
        case AccessMethod::kHeap:
          return "heap";
      }
      return "unknown";
    });

TEST(RelationBTree, RangeScanIsKeyOrdered) {
  storage::CostTracker tracker;
  storage::SimulatedDisk disk(512, &tracker);
  storage::BufferPool pool(&disk, 64);
  Relation rel(&pool, "t", TestSchema(), AccessMethod::kClusteredBTree, 0);
  Random rng(5);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(rel.Insert(Row(rng.UniformInt(0, 1000), i)).ok());
  }
  int64_t prev = -1;
  ASSERT_TRUE(rel.RangeScanByKey(0, 1000, [&](const Tuple& t) {
    EXPECT_GE(t.at(0).AsInt64(), prev);
    prev = t.at(0).AsInt64();
    return true;
  }).ok());
}

TEST(RelationBTree, BulkLoadSortedPacksAndServes) {
  storage::CostTracker tracker;
  storage::SimulatedDisk disk(512, &tracker);
  storage::BufferPool pool(&disk, 64);
  Relation rel(&pool, "t", TestSchema(), AccessMethod::kClusteredBTree, 0);
  int64_t next = 0;
  ASSERT_TRUE(rel.BulkLoadSorted([&](Tuple* t) {
    if (next >= 500) return false;
    *t = Row(next, next * 2);
    ++next;
    return true;
  }).ok());
  EXPECT_EQ(rel.tuple_count(), 500u);
  Tuple out;
  ASSERT_TRUE(rel.FindByKey(123, &out).ok());
  EXPECT_EQ(out.at(1).AsInt64(), 246);
  // Non-empty and non-btree relations refuse.
  EXPECT_EQ(rel.BulkLoadSorted([](Tuple*) { return false; }).code(),
            StatusCode::kFailedPrecondition);
  Relation hash_rel(&pool, "h", TestSchema(), AccessMethod::kClusteredHash,
                    0);
  EXPECT_EQ(hash_rel.BulkLoadSorted([](Tuple*) { return false; }).code(),
            StatusCode::kInvalidArgument);
}

TEST(RelationBTree, CompactAfterChurnKeepsContents) {
  storage::CostTracker tracker;
  storage::SimulatedDisk disk(512, &tracker);
  storage::BufferPool pool(&disk, 64);
  Relation rel(&pool, "t", TestSchema(), AccessMethod::kClusteredBTree, 0);
  for (int64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE(rel.Insert(Row(k, k)).ok());
  }
  for (int64_t k = 100; k < 500; ++k) {
    ASSERT_TRUE(rel.DeleteExact(Row(k, k)).ok());
  }
  ASSERT_TRUE(rel.Compact().ok());
  EXPECT_EQ(rel.tuple_count(), 200u);
  size_t seen = 0;
  ASSERT_TRUE(rel.Scan([&](const Tuple&) {
    ++seen;
    return true;
  }).ok());
  EXPECT_EQ(seen, 200u);
}

TEST(Catalog, CreateGetDrop) {
  storage::CostTracker tracker;
  storage::SimulatedDisk disk(512, &tracker);
  storage::BufferPool pool(&disk, 16);
  Catalog catalog(&pool);
  auto rel = catalog.CreateRelation("emp", TestSchema(),
                                    AccessMethod::kClusteredBTree, 0);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(catalog.relation_count(), 1u);
  EXPECT_EQ(*catalog.Get("emp"), *rel);
  EXPECT_EQ(catalog
                .CreateRelation("emp", TestSchema(),
                                AccessMethod::kClusteredBTree, 0)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.Get("none").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(catalog.Drop("emp").ok());
  EXPECT_EQ(catalog.Drop("emp").code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace viewmat::db
