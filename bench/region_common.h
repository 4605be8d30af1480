#ifndef VIEWMAT_BENCH_REGION_COMMON_H_
#define VIEWMAT_BENCH_REGION_COMMON_H_

// Shared helpers for the winner-region figures (2, 3, 4, 6, 7).

#include <cstdio>
#include <string>

#include "costmodel/regions.h"
#include "sim/bench_report.h"

namespace viewmat::bench {

// Candidate sets and evaluators come from the shared costmodel definitions
// (ModelCandidates / ModelCostFn) — the same ones the advisor's explain
// reports rank, so the figures can never drift from them.

inline double Model1CostOrInf(costmodel::Strategy s,
                              const costmodel::Params& p) {
  static const costmodel::CostFn kCost = costmodel::ModelCostFn(1);
  return kCost(s, p);
}

inline double Model2CostOrInf(costmodel::Strategy s,
                              const costmodel::Params& p) {
  static const costmodel::CostFn kCost = costmodel::ModelCostFn(2);
  return kCost(s, p);
}

inline const std::vector<costmodel::Strategy>& Model1Candidates() {
  return costmodel::ModelCandidates(1);
}

inline const std::vector<costmodel::Strategy>& Model2Candidates() {
  return costmodel::ModelCandidates(2);
}

/// The f (log, .005..1) × P (linear, .01...97) raster the figures use.
inline costmodel::Axis FAxis() { return {0.005, 1.0, 40, true}; }
inline costmodel::Axis PAxis() { return {0.01, 0.97, 72, false}; }

/// "deferred=12.3% clustered=87.7%" — strategies with a zero share omitted.
inline std::string WinSharesString(const costmodel::RegionGrid& grid) {
  std::string out;
  char buf[64];
  for (const costmodel::Strategy s :
       {costmodel::Strategy::kDeferred, costmodel::Strategy::kImmediate,
        costmodel::Strategy::kQmClustered, costmodel::Strategy::kQmUnclustered,
        costmodel::Strategy::kQmSequential, costmodel::Strategy::kQmLoopJoin}) {
    const double share = grid.WinShare(s);
    if (share > 0.0) {
      std::snprintf(buf, sizeof(buf), "%s%s=%.1f%%", out.empty() ? "" : " ",
                    costmodel::StrategyName(s), 100.0 * share);
      out += buf;
    }
  }
  return out;
}

inline void PrintGrid(const char* title, const costmodel::RegionGrid& grid) {
  std::printf("# %s\n%s", title, grid.ToAscii().c_str());
  std::printf("win shares:");
  for (const costmodel::Strategy s :
       {costmodel::Strategy::kDeferred, costmodel::Strategy::kImmediate,
        costmodel::Strategy::kQmClustered, costmodel::Strategy::kQmUnclustered,
        costmodel::Strategy::kQmSequential, costmodel::Strategy::kQmLoopJoin}) {
    const double share = grid.WinShare(s);
    if (share > 0.0) {
      std::printf("  %s=%.1f%%", costmodel::StrategyName(s), 100.0 * share);
    }
  }
  std::printf("\n\n");
}

/// Prints the raster as before and records it in the JSON report: the
/// ASCII map and the win shares land under `<key>.grid` / `<key>.win_shares`
/// in the report's notes.
inline void ReportGrid(sim::BenchReport* report, const std::string& key,
                       const char* title, const costmodel::RegionGrid& grid) {
  PrintGrid(title, grid);
  report->AddNote(key + ".title", title);
  report->AddNote(key + ".grid", grid.ToAscii());
  report->AddNote(key + ".win_shares", WinSharesString(grid));
}

}  // namespace viewmat::bench

#endif  // VIEWMAT_BENCH_REGION_COMMON_H_
