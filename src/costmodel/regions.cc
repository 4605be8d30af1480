#include "costmodel/regions.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>

#include "common/logging.h"
#include "costmodel/model1.h"
#include "costmodel/model2.h"
#include "costmodel/model3.h"

namespace viewmat::costmodel {

const std::vector<Strategy>& ModelCandidates(int model) {
  static const std::vector<Strategy> kModel1 = {
      Strategy::kDeferred, Strategy::kImmediate, Strategy::kQmClustered,
      Strategy::kQmUnclustered, Strategy::kQmSequential};
  static const std::vector<Strategy> kModel2 = {
      Strategy::kDeferred, Strategy::kImmediate, Strategy::kQmLoopJoin};
  static const std::vector<Strategy> kModel3 = {
      Strategy::kDeferred, Strategy::kImmediate, Strategy::kQmRecompute};
  switch (model) {
    case 1: return kModel1;
    case 2: return kModel2;
    case 3: return kModel3;
  }
  VIEWMAT_CHECK(false && "model must be 1, 2, or 3");
  return kModel1;
}

CostFn ModelCostFn(int model) {
  VIEWMAT_CHECK(model >= 1 && model <= 3);
  return [model](Strategy s, const Params& p) -> double {
    StatusOr<double> cost = [&]() -> StatusOr<double> {
      switch (model) {
        case 1: return Model1Cost(s, p);
        case 2: return Model2Cost(s, p);
        default: return Model3Cost(s, p);
      }
    }();
    return cost.ok() ? *cost : std::numeric_limits<double>::infinity();
  };
}

double Axis::At(int i) const {
  VIEWMAT_DCHECK(i >= 0 && i < count);
  if (count == 1) return lo;
  const double t = static_cast<double>(i) / (count - 1);
  if (log_scale) {
    VIEWMAT_DCHECK(lo > 0.0 && hi > 0.0);
    return lo * std::pow(hi / lo, t);
  }
  return lo + t * (hi - lo);
}

Strategy Winner(const CostFn& cost, const std::vector<Strategy>& candidates,
                const Params& p) {
  VIEWMAT_CHECK(!candidates.empty());
  Strategy best = candidates.front();
  double best_cost = std::numeric_limits<double>::infinity();
  for (Strategy s : candidates) {
    const double c = cost(s, p);
    if (c < best_cost) {
      best_cost = c;
      best = s;
    }
  }
  return best;
}

RegionGrid ComputeRegions(const CostFn& cost,
                          const std::vector<Strategy>& candidates,
                          const Params& base, const Axis& f_axis,
                          const Axis& p_axis) {
  RegionGrid grid;
  grid.f_axis = f_axis;
  grid.p_axis = p_axis;
  grid.winners.reserve(static_cast<size_t>(f_axis.count) * p_axis.count);
  for (int fi = 0; fi < f_axis.count; ++fi) {
    Params pt = base;
    pt.f = f_axis.At(fi);
    for (int pj = 0; pj < p_axis.count; ++pj) {
      grid.winners.push_back(
          Winner(cost, candidates, pt.WithUpdateProbability(p_axis.At(pj))));
    }
  }
  return grid;
}

std::string RegionGrid::ToAscii() const {
  std::string out;
  std::set<Strategy> seen;
  // High f at the top, like the paper's figures.
  for (int fi = f_axis.count - 1; fi >= 0; --fi) {
    char label[32];
    std::snprintf(label, sizeof(label), "f=%-8.4g |", f_axis.At(fi));
    out += label;
    for (int pj = 0; pj < p_axis.count; ++pj) {
      const Strategy s = At(fi, pj);
      seen.insert(s);
      out += StrategyCode(s);
    }
    out += '\n';
  }
  out += "            +";
  out.append(static_cast<size_t>(p_axis.count), '-');
  out += '\n';
  char foot[64];
  std::snprintf(foot, sizeof(foot), "             P: %.3g .. %.3g\n",
                p_axis.At(0), p_axis.At(p_axis.count - 1));
  out += foot;
  out += "legend:";
  for (Strategy s : seen) {
    out += ' ';
    out += StrategyCode(s);
    out += '=';
    out += StrategyName(s);
  }
  out += '\n';
  return out;
}

double RegionGrid::WinShare(Strategy s) const {
  if (winners.empty()) return 0.0;
  size_t n = 0;
  for (Strategy w : winners) {
    if (w == s) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(winners.size());
}

}  // namespace viewmat::costmodel
