// §4 ablation: refreshing several views from one hypothetical relation.
// "It may be worthwhile to refresh all the views whenever it is necessary
// to read the contents of the A and D sets ... since this would eliminate
// the need to read the hypothetical database again." We register V views
// over one base as the members of one DeferredStrategy, run a workload, and
// measure the AD read amortization against V independent refresh waves.

#include <cstdio>
#include <map>
#include <vector>

#include "common/random.h"
#include "db/catalog.h"
#include "sim/bench_report.h"
#include "sim/report.h"
#include "view/deferred.h"

using namespace viewmat;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_ablation_shared_hr", cli.quick);
  sim::SeriesTable table;
  table.title =
      "Shared-HR ablation (§4) — AD-file reads per refresh wave vs number "
      "of views sharing the differential";
  table.x_label = "views";
  table.series_names = {"shared-ad-reads", "per-view-ad-reads(est)"};

  // Each view count gets its own engine stack; its progress line prints as
  // the point finishes, ahead of the table.
  for (const int v_count : {1, 2, 4, 8}) {
    storage::CostTracker tracker(1.0, 30.0, 1.0);
    storage::SimulatedDisk disk(4000, &tracker);
    storage::BufferPool pool(&disk, 128);
    db::Catalog catalog(&pool);
    db::Schema schema({db::Field::Int64("k1"), db::Field::Int64("k2"),
                       db::Field::Double("v")});
    db::Relation* base = *catalog.CreateRelation(
        "R", schema, db::AccessMethod::kClusteredBTree, 0);
    for (int64_t k = 0; k < 2000; ++k) {
      (void)base->Insert(
          db::Tuple({db::Value(k), db::Value(k % 20), db::Value(1.0 * k)}));
    }
    hr::AdFile::Options ad;
    ad.hash_buckets = 4;
    ad.expected_keys = 1024;
    auto member_def = [base](int i) {
      view::SelectProjectDef def;
      def.base = base;
      def.predicate = db::Predicate::Between(0, i * 200, i * 200 + 399);
      def.projection = {0, 2};
      def.view_key_field = 0;
      return def;
    };
    view::DeferredStrategy group(member_def(0), ad, &tracker);
    (void)group.InitializeFromBase();
    for (int i = 1; i < v_count; ++i) (void)group.AddView(member_def(i));
    // Accumulate a differential, then refresh once with a cold cache and
    // count the reads attributable to the shared AD scan.
    Random rng(7);
    std::map<int64_t, double> vals;
    for (int64_t k = 0; k < 2000; ++k) vals[k] = 1.0 * k;
    for (int t = 0; t < 20; ++t) {
      db::Transaction txn;
      for (int i = 0; i < 10; ++i) {
        const int64_t key = rng.UniformInt(0, 1999);
        const db::Tuple old_t = db::Tuple(
            {db::Value(key), db::Value(key % 20), db::Value(vals[key])});
        vals[key] = rng.NextDouble();
        const db::Tuple new_t = db::Tuple(
            {db::Value(key), db::Value(key % 20), db::Value(vals[key])});
        txn.Update(base, old_t, new_t);
      }
      (void)group.OnTransaction(txn);
    }
    (void)pool.FlushAndEvictAll();
    const auto before = tracker.counters();
    const auto attributed_before = tracker.attributed();
    (void)group.Refresh();
    const auto delta = tracker.counters() - before;
    // The AD file is a hash file: its reads in the refresh phase are the
    // wave's AD reads. The shared design reads the AD pages once;
    // per-view refreshes would read them once per member.
    const uint64_t ad_reads =
        (tracker.attributed() - attributed_before)
            .at(storage::Component::kHashIndex, storage::Phase::kRefresh)
            .disk_reads;
    table.AddRow(v_count, {static_cast<double>(ad_reads),
                           static_cast<double>(ad_reads) * v_count});
    std::printf("  [views=%d: refresh wave did %llu reads total, "
                "%llu of them AD pages read once instead of %d times]\n",
                v_count, static_cast<unsigned long long>(delta.disk_reads),
                static_cast<unsigned long long>(ad_reads), v_count);
  }
  std::printf("\n%s", table.ToString().c_str());
  report.AddTable(table);
  report.AddNote("reading",
                 "the shared design reads the AD pages once per refresh "
                 "wave; per-view refreshes would read them once per member");
  return sim::FinishBenchMain(cli, &report);
}
