#ifndef VIEWMAT_COSTMODEL_REGIONS_H_
#define VIEWMAT_COSTMODEL_REGIONS_H_

#include <functional>
#include <string>
#include <vector>

#include "costmodel/params.h"
#include "costmodel/strategy.h"

namespace viewmat::costmodel {

/// Cost of one strategy at a parameter point. Regions are computed over an
/// arbitrary candidate set so the same rasterizer serves Model 1
/// (deferred/immediate/clustered/unclustered/sequential) and Model 2
/// (deferred/immediate/loopjoin).
using CostFn = std::function<double(Strategy, const Params&)>;

/// Axis of a region plot: `count` samples spread over [lo, hi], linearly or
/// logarithmically (the paper's f axis is best viewed log-scaled).
struct Axis {
  double lo = 0.0;
  double hi = 1.0;
  int count = 50;
  bool log_scale = false;

  /// The i-th sample position, i in [0, count).
  double At(int i) const;
};

/// A rasterized winner-region plot over (P, f), as in Figures 2, 3, 4, 6, 7:
/// cell (i, j) holds the cheapest strategy at f = f_axis.At(i),
/// P = p_axis.At(j).
struct RegionGrid {
  Axis f_axis;
  Axis p_axis;
  std::vector<Strategy> winners;  ///< row-major, f major, size f.count*p.count

  Strategy At(int fi, int pj) const { return winners[fi * p_axis.count + pj]; }

  /// Renders an ASCII map (one StrategyCode character per cell, f rows from
  /// high to low, P columns from low to high) plus a legend listing only the
  /// strategies that actually win somewhere.
  std::string ToAscii() const;

  /// Fraction of cells won by `s` — handy for tests ("deferred never wins
  /// in Figure 2", "deferred wins a band in Figure 4").
  double WinShare(Strategy s) const;
};

/// Computes the winner at a single point among `candidates`.
Strategy Winner(const CostFn& cost, const std::vector<Strategy>& candidates,
                const Params& p);

/// The strategies applicable to a view model (1 = select-project, 2 = join,
/// 3 = aggregate) — the candidate sets the paper's figures and the advisor's
/// explain reports both rank. One definition so they can never drift
/// apart.
const std::vector<Strategy>& ModelCandidates(int model);

/// The model's TOTAL_* evaluator packaged as a CostFn. Parameter points a
/// formula rejects (Model*Cost returns an error) evaluate to +infinity, so
/// the strategy simply never wins there — the convention Winner() and
/// ComputeRegions() already assume.
CostFn ModelCostFn(int model);

/// Rasterizes winner regions over an (f, P) grid. `base` provides every
/// parameter other than f and P; P is applied via WithUpdateProbability.
RegionGrid ComputeRegions(const CostFn& cost,
                          const std::vector<Strategy>& candidates,
                          const Params& base, const Axis& f_axis,
                          const Axis& p_axis);

}  // namespace viewmat::costmodel

#endif  // VIEWMAT_COSTMODEL_REGIONS_H_
