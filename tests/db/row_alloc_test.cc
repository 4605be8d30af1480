// Allocation guard for the read paths: a scan decodes every row into one
// tuple of its own, so the heap allocations of a call must not grow with
// the rows it visits. This binary replaces the global operator new/delete
// with counting versions, so it is its own executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "costmodel/params.h"
#include "db/relation.h"
#include "sim/strategy_driver.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "view/materialized_view.h"

namespace {
std::atomic<size_t> g_allocations{0};
}  // namespace

// Out of line: inlined next to a `new`, GCC would flag the free() of
// new's pointer (-Wmismatched-new-delete), not knowing new is malloc.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace viewmat {
namespace {

/// Heap allocations made while `call` runs.
template <typename Call>
size_t AllocationsDuring(Call&& call) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  call();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Calls `query(lo, hi, &rows)` once to warm caches and lazy set-up, then
/// over a 10-row and a 1,000-row range: both must allocate alike.
template <typename Query>
void ExpectAllocationsIndependentOfRows(const Query& query) {
  size_t rows = 0;
  query(0, 9, &rows);
  rows = 0;
  const size_t small = AllocationsDuring([&] { query(0, 9, &rows); });
  EXPECT_EQ(rows, 10u);
  rows = 0;
  const size_t large = AllocationsDuring([&] { query(0, 999, &rows); });
  EXPECT_EQ(rows, 1000u);
  EXPECT_EQ(small, large) << "allocations grow with the rows visited";
}

// A string longer than the small-string buffer, so a row decoded into a
// fresh tuple would allocate for it.
const std::string kTag(20, 't');

db::Schema RowSchema() {
  return db::Schema({db::Field::Int64("key"), db::Field::Double("v"),
                     db::Field::String("tag", 24)});
}

db::Tuple Row(int64_t key) {
  return db::Tuple({db::Value(key), db::Value(0.5 * key), db::Value(kTag)});
}

class RowAllocationTest : public ::testing::Test {
 protected:
  RowAllocationTest() : disk_(4000, &tracker_), pool_(&disk_, 64) {}

  std::unique_ptr<db::Relation> Loaded(db::AccessMethod method,
                                       int64_t rows) {
    auto rel = std::make_unique<db::Relation>(&pool_, "r", RowSchema(),
                                              method, 0);
    for (int64_t k = 0; k < rows; ++k) {
      EXPECT_TRUE(rel->Insert(Row(k)).ok());
    }
    return rel;
  }

  storage::CostTracker tracker_;
  storage::SimulatedDisk disk_;
  storage::BufferPool pool_;
};

TEST_F(RowAllocationTest, RangeScanByKeyOnBTreeAndHeap) {
  for (const db::AccessMethod method :
       {db::AccessMethod::kClusteredBTree, db::AccessMethod::kHeap}) {
    SCOPED_TRACE(method == db::AccessMethod::kHeap ? "heap" : "btree");
    const auto rel = Loaded(method, 2000);
    ExpectAllocationsIndependentOfRows(
        [&](int64_t lo, int64_t hi, size_t* rows) {
          ASSERT_TRUE(rel->RangeScanByKey(lo, hi, [rows](const db::Tuple& t) {
                           EXPECT_EQ(t.at(2).AsString(), kTag);
                           ++*rows;
                           return true;
                         }).ok());
        });
  }
}

TEST_F(RowAllocationTest, ScanAndFindAllByKey) {
  const auto few = Loaded(db::AccessMethod::kClusteredBTree, 10);
  const auto many = Loaded(db::AccessMethod::kClusteredBTree, 1000);
  // Duplicates of one key that span several leaves.
  for (int i = 0; i < 999; ++i) ASSERT_TRUE(few->Insert(Row(7)).ok());
  size_t rows = 0;
  const db::Relation::TupleVisitor count = [&rows](const db::Tuple&) {
    ++rows;
    return true;
  };
  for (int pass = 0; pass < 2; ++pass) {  // the first pass warms up
    rows = 0;
    const size_t scan_few = AllocationsDuring([&] {
      ASSERT_TRUE(many->Scan([&](const db::Tuple&) {
                         return rows++ < 9;
                       }).ok());
    });
    EXPECT_EQ(rows, 10u);
    rows = 0;
    const size_t scan_many =
        AllocationsDuring([&] { ASSERT_TRUE(many->Scan(count).ok()); });
    EXPECT_EQ(rows, 1000u);
    rows = 0;
    const size_t find_few = AllocationsDuring(
        [&] { ASSERT_TRUE(few->FindAllByKey(3, count).ok()); });
    EXPECT_EQ(rows, 1u);
    rows = 0;
    const size_t find_many = AllocationsDuring(
        [&] { ASSERT_TRUE(few->FindAllByKey(7, count).ok()); });
    EXPECT_EQ(rows, 1000u);
    if (pass == 1) {
      EXPECT_EQ(scan_few, scan_many);
      EXPECT_EQ(find_few, find_many);
    }
  }
}

TEST_F(RowAllocationTest, MaterializedViewQuery) {
  view::MaterializedView view(&pool_, "v", RowSchema(), 0);
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(view.ApplyInsert(Row(k)).ok());
  }
  ExpectAllocationsIndependentOfRows(
      [&](int64_t lo, int64_t hi, size_t* rows) {
        ASSERT_TRUE(view.Query(lo, hi, [rows](const db::Tuple& t, int64_t c) {
                          EXPECT_EQ(t.at(2).AsString(), kTag);
                          EXPECT_EQ(c, 1);
                          ++*rows;
                          return true;
                        }).ok());
      });
}

/// A driver whose view holds 2,000 keys (N = 4,000, f = 0.5).
std::unique_ptr<sim::StrategyDriver> Driver(sim::StrategyKind kind,
                                            int model) {
  sim::StrategyDriver::Options options;
  options.kind = kind;
  options.model = model;
  options.params.N = 4000;
  options.params.f = 0.5;
  options.seed = 5;
  auto driver = sim::StrategyDriver::Create(options);
  EXPECT_TRUE(driver.ok()) << driver.status().message();
  return driver.ok() ? std::move(driver).value() : nullptr;
}

void DriverQuery(sim::StrategyDriver* driver, int64_t lo, int64_t hi,
                 size_t* rows) {
  ASSERT_TRUE(driver->Query(lo, hi, [rows](const db::Tuple&, int64_t c) {
                      *rows += c;
                      return true;
                    }).ok());
}

TEST(RowAllocation, DriverQueryOnImmediateAndQueryModification) {
  for (const auto& [kind, model] :
       {std::pair{sim::StrategyKind::kImmediate, 1},
        std::pair{sim::StrategyKind::kQueryModification, 2}}) {
    SCOPED_TRACE(std::string(sim::StrategyKindName(kind)) + " model " +
                 std::to_string(model));
    const auto driver = Driver(kind, model);
    ASSERT_NE(driver, nullptr);
    ExpectAllocationsIndependentOfRows(
        [&](int64_t lo, int64_t hi, size_t* rows) {
          DriverQuery(driver.get(), lo, hi, rows);
        });
  }
}

TEST(RowAllocation, DriverQueryOnHybridQueryModificationRoute) {
  const auto driver = Driver(sim::StrategyKind::kHybrid, 1);
  ASSERT_NE(driver, nullptr);
  // A pending differential the query-modification route merges; that route
  // leaves it pending, so both measured calls see the same one.
  ASSERT_TRUE(driver
                  ->OnTransaction(driver->scenario()->NextUpdateTransaction(
                      driver->base()))
                  .ok());
  const storage::CostTracker* tracker = driver->tracker();
  const auto refresh_work = [tracker] {
    return tracker->attributed().PhaseTotal(storage::Phase::kRefresh);
  };
  const storage::CostCounters refresh_before = refresh_work();
  ExpectAllocationsIndependentOfRows(
      [&](int64_t lo, int64_t hi, size_t* rows) {
        const uint64_t cpu_before = tracker->counters().tuple_cpu_ops;
        DriverQuery(driver.get(), lo, hi, rows);
        // Query modification screens every scanned tuple at C1; the view
        // route charges none.
        EXPECT_GE(tracker->counters().tuple_cpu_ops - cpu_before, *rows);
      });
  EXPECT_TRUE(refresh_work() == refresh_before)
      << "a query took the view route";
}

}  // namespace
}  // namespace viewmat
