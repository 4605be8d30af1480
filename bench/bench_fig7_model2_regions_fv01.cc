// Figure 7: Model 2 winner regions with f_v = .01 — smaller queries shift
// the balance back toward the nested-loops join.

#include "region_common.h"

using namespace viewmat;
using namespace viewmat::bench;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_fig7_model2_regions_fv01", cli.quick);
  costmodel::Params fv10;
  costmodel::Params fv01;
  fv01.f_v = 0.01;
  const auto grid10 = costmodel::ComputeRegions(
      Model2CostOrInf, Model2Candidates(), fv10, FAxis(), PAxis());
  const auto grid01 = costmodel::ComputeRegions(
      Model2CostOrInf, Model2Candidates(), fv01, FAxis(), PAxis());
  ReportGrid(&report, "fig7",
             "Figure 7 — Model 2 winner regions, f vs P, f_v = .01", grid01);
  char note[128];
  std::snprintf(note, sizeof(note),
                "loopjoin win share: %.1f%% at f_v=.1 -> %.1f%% at f_v=.01",
                100.0 * grid10.WinShare(costmodel::Strategy::kQmLoopJoin),
                100.0 * grid01.WinShare(costmodel::Strategy::kQmLoopJoin));
  std::printf(
      "%s (paper: 'as f_v is decreased, the advantage of query modification "
      "grows')\n",
      note);
  report.AddNote("loopjoin_win_share_shift", note);
  return sim::FinishBenchMain(cli, &report);
}
