// Figure 8: Model 3 (aggregate view) average cost of an aggregate query vs
// l (tuples per update transaction) for deferred, immediate, and standard
// processing with a clustered index scan.

#include <cstdio>
#include <vector>

#include "costmodel/model3.h"
#include "sim/bench_report.h"
#include "sim/report.h"

using namespace viewmat;
using costmodel::Params;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_fig8_model3_cost_vs_l", cli.quick);
  sim::SeriesTable table;
  table.title =
      "Figure 8 — Model 3: avg cost (ms) of an aggregate query vs l "
      "(P=.5, f=.1)";
  table.x_label = "l";
  table.series_names = {"deferred", "immediate", "clustered-scan"};
  const std::vector<double> ls = {1.0,   2.0,   5.0,   10.0,  25.0,  50.0,
                                  100.0, 200.0, 400.0, 700.0, 1000.0};
  for (const double l : ls) {
    Params p;
    p.l = l;
    table.AddRow(l, {costmodel::TotalDeferred3(p),
                     costmodel::TotalImmediate3(p),
                     costmodel::TotalRecompute3(p)});
  }
  std::printf("%s", table.ToString().c_str());
  report.AddTable(table);
  Params small;
  small.l = 25;
  char note[160];
  std::snprintf(note, sizeof(note),
                "maintenance cost as %% of recomputation at l=25: %.1f%% "
                "(immediate), %.1f%% (deferred)",
                100.0 * costmodel::TotalImmediate3(small) /
                    costmodel::TotalRecompute3(small),
                100.0 * costmodel::TotalDeferred3(small) /
                    costmodel::TotalRecompute3(small));
  std::printf(
      "\npaper's reading: for small l (< 100) maintaining the aggregate "
      "costs only a small percentage of recomputation — here %.1f%% "
      "(immediate) and %.1f%% (deferred) at l = 25.\n",
      100.0 * costmodel::TotalImmediate3(small) /
          costmodel::TotalRecompute3(small),
      100.0 * costmodel::TotalDeferred3(small) /
          costmodel::TotalRecompute3(small));
  report.AddNote("reading", note);
  return sim::FinishBenchMain(cli, &report);
}
