// Figure 2: Model 1 winner regions over (f, P) at f_v = .1. The paper finds
// immediate best at low P, clustered QM elsewhere, and deferred nowhere.

#include "region_common.h"

using namespace viewmat;
using namespace viewmat::bench;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_fig2_model1_regions", cli.quick);
  const costmodel::Params base;  // f_v = .1, C3 = 1
  const costmodel::RegionGrid grid = costmodel::ComputeRegions(
      Model1CostOrInf, Model1Candidates(), base, FAxis(), PAxis());
  ReportGrid(&report, "fig2",
             "Figure 2 — Model 1 winner regions, f (log) vs P, f_v = .1",
             grid);
  std::printf(
      "paper's reading: immediate wins a low-P band, clustered wins the rest,"
      "\ndeferred never wins at C3 = 1. Larger f improves deferred relative\n"
      "to immediate without overtaking it.\n");
  report.AddNote("reading",
                 "immediate wins a low-P band, clustered the rest; deferred "
                 "never wins at C3 = 1");
  return sim::FinishBenchMain(cli, &report);
}
