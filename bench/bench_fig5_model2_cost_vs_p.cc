// Figure 5: Model 2 (2-way join view) average cost per query vs P for
// deferred, immediate and nested-loops query modification.

#include <cstdio>
#include <vector>

#include "costmodel/crossover.h"
#include "costmodel/model2.h"
#include "sim/bench_report.h"
#include "sim/report.h"

using namespace viewmat;
using costmodel::Params;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_fig5_model2_cost_vs_p", cli.quick);
  sim::SeriesTable table;
  table.title =
      "Figure 5 — Model 2: avg cost (ms) per view query vs P "
      "(defaults: N=100000, f=.1, f_R2=.1, f_v=.1, l=25)";
  table.x_label = "P";
  table.series_names = {"deferred", "immediate", "loopjoin"};
  const Params base;
  for (int i = 1; i <= 19; ++i) {
    const Params p = base.WithUpdateProbability(i * 0.05);
    table.AddRow(i * 0.05, {costmodel::TotalDeferred2(p),
                            costmodel::TotalImmediate2(p),
                            costmodel::TotalLoopJoin(p)});
  }
  std::printf("%s", table.ToString().c_str());
  report.AddTable(table);
  auto cross = costmodel::EqualCostP(
      [](const Params& at) { return costmodel::TotalImmediate2(at); },
      [](const Params& at) { return costmodel::TotalLoopJoin(at); }, base);
  if (cross) {
    std::printf(
        "\nmaterialization beats the loop join until P = %.3f, then QM wins "
        "(paper: maintenance overhead overwhelms the clustering advantage "
        "as P grows)\n",
        *cross);
    char note[96];
    std::snprintf(note, sizeof(note), "%.3f", *cross);
    report.AddNote("immediate_vs_loopjoin_crossover_P", note);
  }
  return sim::FinishBenchMain(cli, &report);
}
