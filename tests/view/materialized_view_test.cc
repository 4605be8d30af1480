#include "view/materialized_view.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"

namespace viewmat::view {
namespace {

db::Schema ViewSchema() {
  return db::Schema({db::Field::Int64("dept"), db::Field::Double("salary")});
}

db::Tuple V(int64_t dept, double salary) {
  return db::Tuple({db::Value(dept), db::Value(salary)});
}

class MaterializedViewTest : public ::testing::Test {
 protected:
  MaterializedViewTest()
      : disk_(512, &tracker_),
        pool_(&disk_, 32),
        view_(&pool_, "v", ViewSchema(), 0) {}

  std::map<db::Tuple, int64_t> Contents() {
    std::map<db::Tuple, int64_t> out;
    VIEWMAT_CHECK(view_.ScanAll([&](const db::Tuple& t, int64_t c) {
      out[t] = c;
      return true;
    }).ok());
    return out;
  }

  storage::CostTracker tracker_;
  storage::SimulatedDisk disk_;
  storage::BufferPool pool_;
  MaterializedView view_;
};

TEST_F(MaterializedViewTest, FirstInsertHasCountOne) {
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  const auto contents = Contents();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents.at(V(1, 100)), 1);
  EXPECT_EQ(view_.distinct_count(), 1u);
  EXPECT_EQ(view_.total_count(), 1);
}

TEST_F(MaterializedViewTest, DuplicateInsertIncrementsCount) {
  // The §2.1 duplicate-count rule: projection can map several sources to
  // the same view value.
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  const auto contents = Contents();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents.at(V(1, 100)), 3);
  EXPECT_EQ(view_.distinct_count(), 1u);  // stored once
  EXPECT_EQ(view_.total_count(), 3);
}

TEST_F(MaterializedViewTest, DeleteDecrementsUntilRemoval) {
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyDelete(V(1, 100)).ok());
  EXPECT_EQ(Contents().at(V(1, 100)), 1);
  ASSERT_TRUE(view_.ApplyDelete(V(1, 100)).ok());
  EXPECT_TRUE(Contents().empty());
  EXPECT_EQ(view_.total_count(), 0);
}

TEST_F(MaterializedViewTest, DeletingAbsentValueIsCorruption) {
  // Exactly the failure mode Appendix A's incorrect expansion triggers.
  EXPECT_EQ(view_.ApplyDelete(V(9, 9)).code(), StatusCode::kInternal);
}

TEST_F(MaterializedViewTest, SameKeyDifferentValuesCoexist) {
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  ASSERT_TRUE(view_.ApplyInsert(V(1, 200)).ok());
  const auto contents = Contents();
  EXPECT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents.at(V(1, 100)), 1);
  EXPECT_EQ(contents.at(V(1, 200)), 1);
}

TEST_F(MaterializedViewTest, QueryRangeFiltersOnViewKey) {
  for (int64_t dept = 0; dept < 20; ++dept) {
    ASSERT_TRUE(view_.ApplyInsert(V(dept, dept * 1.5)).ok());
  }
  std::vector<int64_t> seen;
  ASSERT_TRUE(view_.Query(5, 8, [&](const db::Tuple& t, int64_t) {
    seen.push_back(t.at(0).AsInt64());
    return true;
  }).ok());
  EXPECT_EQ(seen, (std::vector<int64_t>{5, 6, 7, 8}));
}

TEST_F(MaterializedViewTest, ApplyDeltaDeletesBeforeInserts) {
  ASSERT_TRUE(view_.ApplyInsert(V(1, 100)).ok());
  // Replace (1,100) with (1,101) atomically.
  ASSERT_TRUE(view_.ApplyDelta({V(1, 101)}, {V(1, 100)}).ok());
  const auto contents = Contents();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents.count(V(1, 101)), 1u);
}

TEST_F(MaterializedViewTest, ClearEmptiesView) {
  for (int64_t dept = 0; dept < 10; ++dept) {
    ASSERT_TRUE(view_.ApplyInsert(V(dept, 1)).ok());
  }
  ASSERT_TRUE(view_.Clear().ok());
  EXPECT_TRUE(Contents().empty());
  EXPECT_EQ(view_.total_count(), 0);
  ASSERT_TRUE(view_.ApplyInsert(V(1, 1)).ok());  // usable after clear
  EXPECT_EQ(view_.total_count(), 1);
}

TEST_F(MaterializedViewTest, RandomChurnMatchesCountedOracle) {
  Random rng(33);
  std::map<db::Tuple, int64_t> oracle;
  for (int step = 0; step < 2000; ++step) {
    const int64_t dept = rng.UniformInt(0, 8);
    const double salary = static_cast<double>(rng.UniformInt(0, 3));
    const db::Tuple value = V(dept, salary);
    if (oracle[value] == 0 || rng.Bernoulli(0.55)) {
      ASSERT_TRUE(view_.ApplyInsert(value).ok());
      ++oracle[value];
    } else {
      ASSERT_TRUE(view_.ApplyDelete(value).ok());
      if (--oracle[value] == 0) oracle.erase(value);
    }
    if (oracle[value] == 0) oracle.erase(value);
  }
  EXPECT_EQ(Contents(), oracle);
}

/// Pins what the scans yield: each stored row once, in key order (rows of
/// one key in insertion order), with its duplicate count. The string column
/// before the payload makes a count read from the wrong offset show.
TEST(MaterializedViewScanTest, QueryAndScanAllYieldEachRowWithItsCount) {
  storage::CostTracker tracker;
  storage::SimulatedDisk disk(512, &tracker);
  storage::BufferPool pool(&disk, 32);
  MaterializedView view(
      &pool, "v",
      db::Schema({db::Field::Int64("dept"), db::Field::String("name", 6),
                  db::Field::Double("salary")}),
      0);
  const auto row = [](int64_t dept, std::string name, double salary) {
    return db::Tuple(
        {db::Value(dept), db::Value(std::move(name)), db::Value(salary)});
  };
  using Rows = std::vector<std::pair<db::Tuple, int64_t>>;
  const auto collect = [](Rows* out) {
    return [out](const db::Tuple& t, int64_t count) {
      out->emplace_back(t, count);
      return true;
    };
  };
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(view.ApplyInsert(row(3, "carol", 1.5)).ok());
  }
  ASSERT_TRUE(view.ApplyInsert(row(1, "al", 2.0)).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(view.ApplyInsert(row(3, "bo", -0.25)).ok());
  }
  ASSERT_TRUE(view.ApplyInsert(row(2, "bea", 7.0)).ok());
  ASSERT_TRUE(view.ApplyInsert(row(5, "eve", 1e300)).ok());
  ASSERT_TRUE(view.ApplyDelete(row(3, "carol", 1.5)).ok());
  ASSERT_TRUE(view.ApplyInsert(row(2, "bea", 7.0)).ok());

  Rows all;
  ASSERT_TRUE(view.ScanAll(collect(&all)).ok());
  EXPECT_EQ(all, (Rows{{row(1, "al", 2.0), 1},
                       {row(2, "bea", 7.0), 2},
                       {row(3, "carol", 1.5), 2},
                       {row(3, "bo", -0.25), 4},
                       {row(5, "eve", 1e300), 1}}));
  Rows ranged;
  ASSERT_TRUE(view.Query(2, 3, collect(&ranged)).ok());
  EXPECT_EQ(ranged, (Rows{{row(2, "bea", 7.0), 2},
                          {row(3, "carol", 1.5), 2},
                          {row(3, "bo", -0.25), 4}}));
  Rows first_only;
  ASSERT_TRUE(view.Query(0, 9, [&](const db::Tuple& t, int64_t count) {
    first_only.emplace_back(t, count);
    return false;
  }).ok());
  EXPECT_EQ(first_only, (Rows{{row(1, "al", 2.0), 1}}));
}

}  // namespace
}  // namespace viewmat::view
