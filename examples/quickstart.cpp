// Quickstart: create a relation, define a selection-projection view, and
// answer the same queries with all three materialization strategies —
// query modification, immediate maintenance, and deferred maintenance —
// while the shared cost tracker meters each one in the paper's model
// milliseconds.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "check.h"
#include "db/catalog.h"
#include "db/predicate.h"
#include "hr/ad_file.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "view/deferred.h"
#include "view/immediate.h"
#include "view/query_modification.h"

using namespace viewmat;
using viewmat::examples::Check;

namespace {

db::Tuple AccountRow(int64_t id, int64_t branch, double balance) {
  return db::Tuple({db::Value(id), db::Value(branch), db::Value(balance)});
}

void RunQueries(const char* label, view::ViewStrategy* strategy,
                storage::BufferPool* pool, storage::CostTracker* tracker) {
  // Start cold so the metered cost reflects real I/O, then flush so pending
  // writes are charged to this phase.
  Check(pool->FlushAndEvictAll());
  const storage::CostCounters before = tracker->counters();
  std::printf("--- %s ---\n", label);
  // "Balances of accounts 0..9 at the watched branches."
  Check(strategy->Query(0, 9, [](const db::Tuple& t, int64_t count) {
    std::printf("  account %lld -> balance %.2f (x%lld)\n",
                static_cast<long long>(t.at(0).AsInt64()),
                t.at(1).AsDouble(), static_cast<long long>(count));
    return true;
  }));
  Check(pool->FlushAll());
  std::printf("  [query cost: %.0f model-ms]\n\n",
              tracker->Ms(tracker->counters() - before));
}

}  // namespace

int main() {
  // One simulated database: 4 KB pages, 30 ms per I/O, small buffer pool.
  storage::CostTracker tracker(/*c1=*/1.0, /*c2=*/30.0, /*c3=*/1.0);
  storage::SimulatedDisk disk(4000, &tracker);
  storage::BufferPool pool(&disk, 128);
  db::Catalog catalog(&pool);

  // accounts(id, branch, balance), clustered B+-tree on id.
  db::Schema schema({db::Field::Int64("id"), db::Field::Int64("branch"),
                     db::Field::Double("balance")});
  db::Relation* accounts =
      Check(catalog.CreateRelation("accounts", schema,
                                   db::AccessMethod::kClusteredBTree, 0));
  for (int64_t id = 0; id < 1000; ++id) {
    Check(accounts->Insert(AccountRow(id, id % 10, 100.0 + id)));
  }

  // View: balances of low-numbered accounts —
  //   define view small_accts (id, balance) where accounts.id < 100
  view::SelectProjectDef def;
  def.base = accounts;
  def.predicate =
      db::Predicate::Compare(0, db::CompareOp::kLt, db::Value(int64_t{100}));
  def.projection = {0, 2};  // id, balance
  def.view_key_field = 0;

  // Three engines over three logical copies of the workload. (Sharing one
  // base relation here is fine: QM reads it, immediate applies the
  // transaction once, deferred runs against its own HR-deferred state in a
  // real deployment — see tests/view/equivalence_test.cc for the isolated
  // version.)
  view::QmSelectProjectStrategy qm(def, &tracker);
  RunQueries("query modification (no materialized copy)", &qm, &pool,
             &tracker);

  view::ImmediateStrategy immediate(def, &tracker);
  Check(immediate.InitializeFromBase());
  // A transaction: account 3 receives a deposit.
  db::Transaction txn;
  txn.Update(accounts, AccountRow(3, 3, 103.0), AccountRow(3, 3, 1000.0));
  Check(immediate.OnTransaction(txn));
  RunQueries("immediate maintenance (refreshed at commit)", &immediate,
             &pool, &tracker);

  view::DeferredStrategy deferred(def, hr::AdFile::Options{}, &tracker);
  Check(deferred.InitializeFromBase());
  db::Transaction txn2;
  txn2.Update(accounts, AccountRow(7, 7, 107.0), AccountRow(7, 7, 7777.0));
  Check(deferred.OnTransaction(txn2));
  std::printf("deferred has %llu pending differential tuples before the "
              "query triggers its refresh\n\n",
              static_cast<unsigned long long>(deferred.pending_tuples()));
  RunQueries("deferred maintenance (refreshed just before the query)",
             &deferred, &pool, &tracker);

  std::printf("total metered cost: %.0f model-ms (%llu reads, %llu writes, "
              "%llu screens)\n",
              tracker.TotalMs(),
              static_cast<unsigned long long>(tracker.counters().disk_reads),
              static_cast<unsigned long long>(tracker.counters().disk_writes),
              static_cast<unsigned long long>(
                  tracker.counters().screen_tests));
  return 0;
}
