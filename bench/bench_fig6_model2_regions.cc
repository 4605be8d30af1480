// Figure 6: Model 2 winner regions over (f, P) at f_v = .1 — join views
// favor materialization over a much larger area than Model 1.

#include "region_common.h"

using namespace viewmat;
using namespace viewmat::bench;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_fig6_model2_regions", cli.quick);
  const costmodel::Params base;
  const auto grid = costmodel::ComputeRegions(
      Model2CostOrInf, Model2Candidates(), base, FAxis(), PAxis());
  ReportGrid(&report, "fig6",
             "Figure 6 — Model 2 winner regions, f (log) vs P, f_v = .1",
             grid);
  return sim::FinishBenchMain(cli, &report);
}
