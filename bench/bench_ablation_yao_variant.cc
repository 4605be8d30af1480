// Appendix B ablation: exact hypergeometric Yao vs the Cardenas
// approximation inside the full cost model. Headline totals barely move
// (the paper's n/m > 10 accuracy claim), but knife-edge winner boundaries
// (Figure 4's deferred region) are sensitive — this bench quantifies both.

#include <cstdio>

#include "costmodel/model1.h"
#include "costmodel/regions.h"
#include "sim/bench_report.h"
#include "sim/report.h"

using namespace viewmat;
using costmodel::Params;
using costmodel::Strategy;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_ablation_yao_variant", cli.quick);
  // 1. Totals at defaults under both variants.
  Params approx;
  Params exact;
  exact.use_exact_yao = true;
  std::printf("# Yao-variant ablation (Appendix B)\n");
  std::printf("%-14s %14s %14s %9s\n", "total", "cardenas", "exact", "shift");
  struct Row {
    const char* name;
    double a, e;
  } rows[] = {
      {"deferred-1", costmodel::TotalDeferred1(approx),
       costmodel::TotalDeferred1(exact)},
      {"immediate-1", costmodel::TotalImmediate1(approx),
       costmodel::TotalImmediate1(exact)},
      {"unclustered", costmodel::TotalUnclustered(approx),
       costmodel::TotalUnclustered(exact)},
  };
  for (const Row& r : rows) {
    std::printf("%-14s %14.1f %14.1f %8.2f%%\n", r.name, r.a, r.e,
                100.0 * (r.e - r.a) / r.a);
    char note[96];
    std::snprintf(note, sizeof(note),
                  "cardenas=%.1f exact=%.1f shift=%.2f%%", r.a, r.e,
                  100.0 * (r.e - r.a) / r.a);
    report.AddNote(std::string("totals.") + r.name, note);
  }

  // 2. The deferred win share over the (f, P) plane per variant and C3 —
  // the knife edge behind the Figure 4 threshold deviation.
  auto cost_fn = [](Strategy s, const Params& p) {
    auto c = costmodel::Model1Cost(s, p);
    return c.ok() ? *c : 1e300;
  };
  const std::vector<Strategy> candidates = {
      Strategy::kDeferred, Strategy::kImmediate, Strategy::kQmClustered,
      Strategy::kQmUnclustered, Strategy::kQmSequential};
  const costmodel::Axis f_axis{0.005, 1.0, 32, true};
  const costmodel::Axis p_axis{0.01, 0.97, 32, false};
  sim::SeriesTable shares;
  shares.title =
      "Deferred win share (%) over the (f, P) plane vs C3, per Yao variant";
  shares.x_label = "C3";
  shares.series_names = {"cardenas%", "exact%"};
  for (const double c3 : {1.0, 2.0, 4.0, 8.0}) {
    Params pa;
    pa.C3 = c3;
    Params pe = pa;
    pe.use_exact_yao = true;
    const double sa =
        costmodel::ComputeRegions(cost_fn, candidates, pa, f_axis, p_axis)
            .WinShare(Strategy::kDeferred);
    const double se =
        costmodel::ComputeRegions(cost_fn, candidates, pe, f_axis, p_axis)
            .WinShare(Strategy::kDeferred);
    shares.AddRow(c3, {100.0 * sa, 100.0 * se});
  }
  std::printf("\n%s", shares.ToString().c_str());
  std::printf(
      "\ntotals shift by well under 5%%, but the C3 threshold at which a "
      "deferred region first appears depends on the variant — the deviation "
      "EXPERIMENTS.md records against the paper's Figure 4.\n");
  report.AddTable(shares);
  report.AddNote("reading",
                 "totals shift by well under 5%, but the C3 threshold at "
                 "which a deferred region first appears depends on the "
                 "Yao variant");
  return sim::FinishBenchMain(cli, &report);
}
