// "Window on a database" (§4's closing speculation): a screenful of query
// results that stays current as the database changes. Deferred maintenance
// is the natural engine for this — transactions stream into the AD
// differential at full speed, and the window refreshes the view only when
// it redraws.
//
// This example simulates a monitoring window over hot inventory items,
// redrawing every few transactions and printing what the user would see.

#include <cstdio>
#include <string>

#include "check.h"
#include "common/random.h"
#include "db/catalog.h"
#include "hr/ad_file.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "view/deferred.h"

using namespace viewmat;
using viewmat::examples::Check;

namespace {

db::Tuple Item(int64_t sku, int64_t stock, double price) {
  return db::Tuple({db::Value(sku), db::Value(stock), db::Value(price)});
}

}  // namespace

int main() {
  storage::CostTracker tracker(1.0, 30.0, 1.0);
  storage::SimulatedDisk disk(4000, &tracker);
  storage::BufferPool pool(&disk, 128);
  db::Catalog catalog(&pool);

  db::Schema schema({db::Field::Int64("sku"), db::Field::Int64("stock"),
                     db::Field::Double("price")});
  db::Relation* inventory = Check(catalog.CreateRelation(
      "inventory", schema, db::AccessMethod::kClusteredBTree, 0));

  std::vector<int64_t> stock(200);
  for (int64_t sku = 0; sku < 200; ++sku) {
    stock[sku] = 50 + (sku * 13) % 40;
    Check(inventory->Insert(Item(sku, stock[sku], 9.99 + sku)));
  }

  // The window: "watch SKUs 0..19" (the hot shelf).
  view::SelectProjectDef def;
  def.base = inventory;
  def.predicate =
      db::Predicate::Compare(0, db::CompareOp::kLt, db::Value(int64_t{20}));
  def.projection = {0, 1};  // sku, stock
  def.view_key_field = 0;

  view::DeferredStrategy window(def, hr::AdFile::Options{}, &tracker);
  Check(window.InitializeFromBase());

  auto redraw = [&](int frame) {
    std::printf("┌─ inventory window — frame %d (refresh #%llu, %llu "
                "pending) ─┐\n",
                frame,
                static_cast<unsigned long long>(window.refresh_count() + 1),
                static_cast<unsigned long long>(window.pending_tuples()));
    Check(window.Query(0, 7, [](const db::Tuple& t, int64_t) {
      const int64_t units = t.at(1).AsInt64();
      std::string bar(static_cast<size_t>(units / 4), '#');
      std::printf("│ sku %-3lld %-22s %3lld units %s\n",
                  static_cast<long long>(t.at(0).AsInt64()), bar.c_str(),
                  static_cast<long long>(units), units < 30 ? "LOW!" : "");
      return true;
    }));
    std::printf("└──────────────────────────────────────────────┘\n\n");
  };

  Random rng(2026);
  redraw(0);
  for (int frame = 1; frame <= 3; ++frame) {
    // A burst of sales between redraws; the window does no work yet.
    for (int txn = 0; txn < 15; ++txn) {
      const int64_t sku = rng.UniformInt(0, 199);
      const int64_t sold = rng.UniformInt(1, 6);
      db::Transaction t;
      t.Update(inventory, Item(sku, stock[sku], 9.99 + sku),
               Item(sku, std::max<int64_t>(stock[sku] - sold, 0),
                    9.99 + sku));
      stock[sku] = std::max<int64_t>(stock[sku] - sold, 0);
      Check(window.OnTransaction(t));
    }
    redraw(frame);
  }

  std::printf("45 transactions absorbed with %llu batched refreshes; total "
              "metered cost %.0f model-ms.\n",
              static_cast<unsigned long long>(window.refresh_count()),
              tracker.TotalMs());
  std::printf("(immediate maintenance would have patched the window 45 "
              "times; query modification would have re-scanned the "
              "relation at every redraw)\n");
  return 0;
}
