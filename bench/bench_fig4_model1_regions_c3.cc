// Figure 4: Figure 2's raster with the A/D-set upkeep cost C3 doubled.
// The paper reports a deferred-best region appearing, demonstrating that
// the methods are very sensitive to C3. Under the Cardenas form of the Yao
// function the deferred region is within 0.01% of appearing at C3 = 2 and
// becomes unambiguous by C3 ≈ 4; we sweep C3 to show the progression (see
// EXPERIMENTS.md for the deviation note).

#include "costmodel/model1.h"
#include "region_common.h"

using namespace viewmat;
using namespace viewmat::bench;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_fig4_model1_regions_c3", cli.quick);
  for (const double c3 : {1.0, 2.0, 4.0, 8.0}) {
    costmodel::Params p;
    p.C3 = c3;
    const auto grid = costmodel::ComputeRegions(
        Model1CostOrInf, Model1Candidates(), p, FAxis(), PAxis());
    char title[96];
    std::snprintf(title, sizeof(title),
                  "Figure 4 family — Model 1 winner regions, C3 = %.0f, "
                  "f_v = .1",
                  c3);
    char key[16];
    std::snprintf(key, sizeof(key), "c3=%.0f", c3);
    ReportGrid(&report, key, title, grid);
  }
  // The pointwise mechanism: deferred-vs-immediate gap closes linearly in
  // C3 at every (f, P).
  sim::SeriesTable gap;
  gap.title = "deferred minus immediate (ms) at f=.957, P=.283";
  gap.x_label = "C3";
  gap.series_names = {"def-minus-imm"};
  for (const double c3 : {1.0, 2.0, 3.0, 4.0, 6.0}) {
    costmodel::Params p = costmodel::Params().WithUpdateProbability(0.283);
    p.f = 0.957;
    p.C3 = c3;
    gap.AddRow(c3,
               {costmodel::TotalDeferred1(p) - costmodel::TotalImmediate1(p)});
  }
  std::printf("%s", gap.ToString().c_str());
  report.AddTable(gap);
  return sim::FinishBenchMain(cli, &report);
}
