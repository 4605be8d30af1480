// §1 ablation: the three update-screening schemes. For a stream of updated
// tuples with view selectivity f:
//   rule indexing  [Ston86]: C1 per *interval hit*  -> ~C1·f per tuple
//   substitute-all [Blak86]: C1 per tuple, always
//   RIU            [Bune79]: free when the command writes no view field;
//                            C1 per tuple otherwise
// We run the real UpdateScreen implementations over synthetic transaction
// streams and report measured C1 charges per 1000 updated tuples, sweeping
// f and the fraction of commands that are readily ignorable.

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "db/catalog.h"
#include "sim/bench_report.h"
#include "sim/report.h"
#include "view/screening.h"

using namespace viewmat;

namespace {

db::Tuple Row(int64_t k1, int64_t k2, double v) {
  return db::Tuple({db::Value(k1), db::Value(k2), db::Value(v)});
}

}  // namespace

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_ablation_screening", cli.quick);
  db::Schema schema({db::Field::Int64("k1"), db::Field::Int64("k2"),
                     db::Field::Double("v")});
  constexpr int64_t kN = 10000;
  constexpr int kTuplesPerTxn = 25;
  const int kTxns = cli.quick ? 80 : 400;

  sim::SeriesTable table;
  table.title =
      "Screening ablation (§1) — C1 substitutions per 1000 updated tuples "
      "(50% of commands write only non-view fields)";
  table.x_label = "f";
  table.series_names = {"rule-index", "substitute-all", "riu"};

  // Each f point meters its three screening modes on the same seeded
  // workload, so the modes compare like for like.
  for (const double f : {0.01, 0.05, 0.1, 0.25, 0.5, 1.0}) {
    storage::CostTracker meter;  // counts C1 screen charges
    const int64_t cut = static_cast<int64_t>(f * kN);
    auto pred = db::Predicate::Compare(0, db::CompareOp::kLt, db::Value(cut));
    const std::set<size_t> reads = {0, 2};  // k1 (predicate+key), v
    std::vector<double> row;
    for (const view::ScreeningMode mode : {view::ScreeningMode::kRuleIndex,
                                           view::ScreeningMode::kSubstituteAll,
                                           view::ScreeningMode::kRiu}) {
      meter.Reset();
      view::UpdateScreen screen(pred, 0, &meter, mode, reads);
      Random rng(11);
      int64_t tuples = 0;
      for (int t = 0; t < kTxns; ++t) {
        // Half the commands touch only k2 (ignorable for this view).
        const bool ignorable_shape = rng.Bernoulli(0.5);
        db::NetChange nc;
        for (int i = 0; i < kTuplesPerTxn; ++i) {
          const int64_t key = rng.UniformInt(0, kN - 1);
          const db::Tuple old_t = Row(key, 1, 1.0);
          const db::Tuple new_t =
              ignorable_shape ? Row(key, 2, 1.0) : Row(key, 1, 2.0);
          nc.AddDelete(old_t);
          nc.AddInsert(new_t);
        }
        tuples += 2 * kTuplesPerTxn;
        if (screen.TransactionIsIgnorable(nc)) continue;
        for (const db::Tuple& d : nc.deletes()) screen.Passes(d);
        for (const db::Tuple& a : nc.inserts()) screen.Passes(a);
      }
      row.push_back(1000.0 *
                    static_cast<double>(meter.counters().screen_tests) /
                    static_cast<double>(tuples));
    }
    table.AddRow(f, row);
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nrule indexing's cost tracks f (only t-lock hits substitute); "
      "substitute-all is flat at 1000; RIU halves the bill whenever half "
      "the commands are compile-time ignorable, but pays full substitution "
      "on the rest — the paper's reason for preferring rule indexing.\n");
  report.AddTable(table);
  report.AddNote("reading",
                 "rule indexing tracks f, substitute-all is flat at 1000, "
                 "RIU halves the bill on compile-time-ignorable commands");
  return sim::FinishBenchMain(cli, &report);
}
