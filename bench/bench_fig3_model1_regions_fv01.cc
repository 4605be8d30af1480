// Figure 3: same raster as Figure 2 with f_v lowered to .01 — query
// modification (clustered) wins over a larger area because maintenance
// overhead is independent of f_v while the query itself gets cheaper.

#include "region_common.h"

using namespace viewmat;
using namespace viewmat::bench;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_fig3_model1_regions_fv01", cli.quick);
  costmodel::Params fv10;  // reference: f_v = .1
  costmodel::Params fv01;
  fv01.f_v = 0.01;
  const auto grid10 = costmodel::ComputeRegions(
      Model1CostOrInf, Model1Candidates(), fv10, FAxis(), PAxis());
  const auto grid01 = costmodel::ComputeRegions(
      Model1CostOrInf, Model1Candidates(), fv01, FAxis(), PAxis());
  ReportGrid(&report, "fig3",
             "Figure 3 — Model 1 winner regions, f vs P, f_v = .01", grid01);
  char note[160];
  std::snprintf(note, sizeof(note),
                "clustered win share: %.1f%% at f_v=.1 -> %.1f%% at f_v=.01",
                100.0 * grid10.WinShare(costmodel::Strategy::kQmClustered),
                100.0 * grid01.WinShare(costmodel::Strategy::kQmClustered));
  std::printf(
      "%s (paper: 'clustered performs best over an even larger area')\n",
      note);
  report.AddNote("clustered_win_share_shift", note);
  return sim::FinishBenchMain(cli, &report);
}
