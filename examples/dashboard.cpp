// A reporting dashboard built from the library's extension features:
//  - one DeferredStrategy keeps several selection views over one orders
//    table behind a single shared AD differential (§4's multi-view
//    refresh optimization), and
//  - a MaterializedAggregate keeps revenue per region (a GROUP BY
//    aggregate, Model 3 with one state per group) on one state page, fed
//    from the same transaction stream.
// Sales transactions stream in; redrawing the dashboard costs one shared
// fold plus one read of the revenue page instead of any base-table scans.
// The deferred strategy owns applying transactions to the base (it defers
// them in its differential); the aggregate consumes the same net changes
// directly.
// The program exits nonzero if any library call fails.

#include <cstdio>
#include <string>

#include "check.h"
#include "common/random.h"
#include "db/catalog.h"
#include "view/aggregate.h"
#include "view/deferred.h"

using namespace viewmat;
using viewmat::examples::Check;

namespace {

constexpr int64_t kOrders = 3000;
constexpr int64_t kRegions = 6;
const char* kRegionNames[] = {"north", "south", "east",
                              "west",  "core",  "online"};

db::Tuple Order(int64_t id, int64_t region, double amount) {
  return db::Tuple({db::Value(id), db::Value(region), db::Value(amount)});
}

}  // namespace

int main() {
  storage::CostTracker tracker(1.0, 30.0, 1.0);
  storage::SimulatedDisk disk(4000, &tracker);
  storage::BufferPool pool(&disk, 256);
  db::Catalog catalog(&pool);

  db::Schema schema({db::Field::Int64("id"), db::Field::Int64("region"),
                     db::Field::Double("amount")});
  db::Relation* orders = Check(catalog.CreateRelation(
      "orders", schema, db::AccessMethod::kClusteredBTree, 0));
  std::vector<double> amounts(kOrders);
  Random rng(7);
  for (int64_t id = 0; id < kOrders; ++id) {
    amounts[id] = 10.0 + rng.NextDouble() * 490.0;
    Check(orders->Insert(Order(id, id % kRegions, amounts[id])));
  }

  // Panel views sharing one differential: "recent orders" (member 0) and
  // "backlog".
  view::SelectProjectDef recent;
  recent.base = orders;
  recent.predicate = db::Predicate::Compare(0, db::CompareOp::kGe,
                                            db::Value(kOrders - 200));
  recent.projection = {0, 2};
  recent.view_key_field = 0;
  view::DeferredStrategy panels(recent, hr::AdFile::Options{}, &tracker);
  Check(panels.InitializeFromBase());
  const size_t kRecent = 0;
  view::SelectProjectDef backlog;
  backlog.base = orders;
  backlog.predicate = db::Predicate::Compare(0, db::CompareOp::kLt,
                                             db::Value(int64_t{100}));
  backlog.projection = {0, 2};
  backlog.view_key_field = 0;
  const size_t kBacklog = Check(panels.AddView(backlog));

  // Revenue per region: sum(amount) group by region, maintained with the
  // per-group transition functions and written through to its page.
  view::AggregateDef revenue;
  revenue.base = orders;
  revenue.predicate = db::Predicate::True();
  revenue.op = view::AggregateOp::kSum;
  revenue.agg_field = 2;
  revenue.group_field = 1;
  Check(revenue.Validate());
  view::MaterializedAggregate by_region(revenue);
  view::AggregateGroups regions;
  Check(view::ComputeAggregateFromBase(revenue, nullptr, &regions));
  Check(by_region.Write(regions));

  auto redraw = [&](int frame) {
    std::printf("======= sales dashboard, frame %d (shared folds so far: "
                "%llu) =======\n",
                frame, static_cast<unsigned long long>(panels.refresh_count()));
    std::printf("revenue by region:\n");
    Check(by_region.Read(&regions));
    for (const auto& [region, state] : regions) {
      std::printf("  %-8s %12.2f\n", kRegionNames[region % kRegions],
                  Check(state.Current()).AsDouble());
    }
    double recent_total = 0;
    size_t recent_count = 0;
    Check(panels.QueryView(kRecent, 0, 1 << 30,
                           [&](const db::Tuple& t, int64_t) {
                             recent_total += t.at(1).AsDouble();
                             ++recent_count;
                             return true;
                           }));
    size_t backlog_count = 0;
    Check(panels.QueryView(kBacklog, 0, 1 << 30,
                           [&](const db::Tuple&, int64_t) {
                             ++backlog_count;
                             return true;
                           }));
    std::printf("recent orders: %zu totaling %.2f | backlog rows: %zu\n\n",
                recent_count, recent_total, backlog_count);
  };

  redraw(0);
  for (int frame = 1; frame <= 2; ++frame) {
    // A burst of price corrections between redraws; the panel views absorb
    // them via the shared differential, the aggregate via its per-group
    // transition functions — no base scan anywhere.
    for (int i = 0; i < 25; ++i) {
      const int64_t id = rng.UniformInt(0, kOrders - 1);
      const double old_amount = amounts[id];
      amounts[id] += 5.0;
      db::Transaction txn;
      txn.Update(orders, Order(id, id % kRegions, old_amount),
                 Order(id, id % kRegions, amounts[id]));
      Check(panels.OnTransaction(txn));  // owns the base application (deferred)
      view::AggregateState& state = regions.at(id % kRegions);
      state.ApplyDelete(old_amount);  // a sum never loses exactness
      state.ApplyInsert(amounts[id]);
      Check(by_region.Write(regions));
    }
    redraw(frame);
  }
  std::printf("total metered dashboard cost: %.0f model-ms across %zu "
              "groups and %zu panel views\n",
              tracker.TotalMs(), regions.size(), panels.view_count());
  return 0;
}
