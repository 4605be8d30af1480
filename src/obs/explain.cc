#include "obs/explain.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.h"
#include "common/logging.h"
#include "costmodel/regions.h"

namespace viewmat::obs {

namespace {

using costmodel::CostFn;
using costmodel::Params;
using costmodel::Strategy;

/// The paper's name for each strategy's total-cost formula.
const char* FormulaName(Strategy s) {
  switch (s) {
    case Strategy::kDeferred: return "TOTAL_def";
    case Strategy::kImmediate: return "TOTAL_imm";
    case Strategy::kQmClustered: return "TOTAL_cl";
    case Strategy::kQmUnclustered: return "TOTAL_ucl";
    case Strategy::kQmSequential: return "TOTAL_seq";
    case Strategy::kQmLoopJoin: return "TOTAL_join";
    case Strategy::kQmRecompute: return "TOTAL_rec";
  }
  return "TOTAL_?";
}

std::string Formula(Strategy s, int model, const Params& p) {
  char buf[192];
  if (model == 2) {
    std::snprintf(buf, sizeof(buf),
                  "%s(P=%.3f, f=%.4g, f_v=%.4g, f_R2=%.4g, u=%.4g, b=%.4g, "
                  "T=%.4g)",
                  FormulaName(s), p.P(), p.f, p.f_v, p.f_R2, p.u(), p.b(),
                  p.T());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%s(P=%.3f, f=%.4g, f_v=%.4g, l=%.4g, u=%.4g, b=%.4g, "
                  "T=%.4g)",
                  FormulaName(s), p.P(), p.f, p.f_v, p.l, p.u(), p.b(), p.T());
  }
  return buf;
}

/// One searchable axis: how to read the parameter, how to build the point
/// at a trial value, and the range/scale to search over.
struct BoundaryAxis {
  const char* name;
  double lo;
  double hi;
  bool log_scale;
  double (*get)(const Params&);
  Params (*set)(const Params&, double);
};

const BoundaryAxis kAxes[] = {
    {"P", 0.001, 0.995, false, [](const Params& p) { return p.P(); },
     [](const Params& p, double x) { return p.WithUpdateProbability(x); }},
    {"f", 1e-4, 1.0, true, [](const Params& p) { return p.f; },
     [](const Params& p, double x) {
       Params q = p;
       q.f = x;
       return q;
     }},
    {"f_v", 1e-4, 1.0, true, [](const Params& p) { return p.f_v; },
     [](const Params& p, double x) {
       Params q = p;
       q.f_v = x;
       return q;
     }},
    {"l", 1.0, 1000.0, true, [](const Params& p) { return p.l; },
     [](const Params& p, double x) {
       Params q = p;
       q.l = x;
       return q;
     }},
};

Strategy WinnerAt(const CostFn& cost, const std::vector<Strategy>& candidates,
                  const BoundaryAxis& axis, const Params& base, double x) {
  return costmodel::Winner(cost, candidates, axis.set(base, x));
}

/// Bisects the winner flip inside (same, flipped): `same` wins the current
/// strategy, `flipped` wins something else. Returns the boundary location.
double BisectFlip(const CostFn& cost, const std::vector<Strategy>& candidates,
                  const BoundaryAxis& axis, const Params& base,
                  Strategy incumbent, double same, double flipped) {
  for (int i = 0; i < 64; ++i) {
    const double mid = axis.log_scale ? std::sqrt(same * flipped)
                                      : 0.5 * (same + flipped);
    if (WinnerAt(cost, candidates, axis, base, mid) == incumbent) {
      same = mid;
    } else {
      flipped = mid;
    }
  }
  return flipped;
}

/// Steps outward from x0, the point's own value, across `steps` grid
/// positions per direction, looking for the nearest winner flip; bisects it
/// when found. A point outside the axis's range widens it to include x0.
bool SearchAxis(const CostFn& cost, const std::vector<Strategy>& candidates,
                const BoundaryAxis& axis, const Params& base,
                Strategy incumbent, ExplainBoundary* out) {
  const double x0 = axis.get(base);
  if (axis.log_scale && !(x0 > 0)) return false;  // no log step from zero
  const double range_lo = std::min(axis.lo, x0);
  const double range_hi = std::max(axis.hi, x0);
  constexpr int kSteps = 96;
  auto position = [&](double lo, double hi, int i) {
    const double t = static_cast<double>(i) / kSteps;
    return axis.log_scale ? lo * std::pow(hi / lo, t) : lo + t * (hi - lo);
  };

  bool found = false;
  double best_boundary = 0;
  Strategy best_challenger = incumbent;
  // Up from x0 and down from x0, independently; keep the closer flip.
  for (const bool upward : {true, false}) {
    const double far = upward ? range_hi : range_lo;
    if ((upward && x0 >= range_hi) || (!upward && x0 <= range_lo)) continue;
    double same = x0;
    for (int i = 1; i <= kSteps; ++i) {
      const double x = position(x0, far, i);
      const Strategy w = WinnerAt(cost, candidates, axis, base, x);
      if (w != incumbent) {
        const double boundary =
            BisectFlip(cost, candidates, axis, base, incumbent, same, x);
        if (!found ||
            std::fabs(boundary - x0) < std::fabs(best_boundary - x0)) {
          found = true;
          best_boundary = boundary;
          // Name the challenger from just beyond the boundary, not the
          // coarse grid point — several regions can sit between them.
          const double beyond = axis.log_scale
                                    ? boundary * (upward ? 1.0 + 1e-9 : 1.0 - 1e-9)
                                    : boundary + (upward ? 1e-9 : -1e-9);
          best_challenger = WinnerAt(cost, candidates, axis, base,
                                     std::clamp(beyond, range_lo, range_hi));
        }
        break;
      }
      same = x;
    }
  }
  if (!found) return false;
  out->param = axis.name;
  out->current = x0;
  out->boundary = best_boundary;
  out->distance = std::fabs(best_boundary - x0);
  // P is already a probability: its drift distance is directly comparable.
  // The log axes normalize by the current value.
  out->relative_distance = std::string_view(axis.name) == "P"
                               ? out->distance
                               : out->distance / std::max(x0, 1e-12);
  out->challenger = best_challenger;
  return true;
}

}  // namespace

ExplainReport BuildExplain(int model, const Params& params) {
  ExplainReport report;
  report.model = model;
  report.params = params;
  const CostFn cost = costmodel::ModelCostFn(model);
  const std::vector<Strategy>& candidates = costmodel::ModelCandidates(model);

  for (const Strategy s : candidates) {
    ExplainCandidate candidate;
    candidate.strategy = s;
    candidate.cost_ms = cost(s, params);
    candidate.formula = Formula(s, model, params);
    report.ranked.push_back(std::move(candidate));
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const ExplainCandidate& a, const ExplainCandidate& b) {
              return a.cost_ms < b.cost_ms;
            });
  for (ExplainCandidate& candidate : report.ranked) {
    candidate.margin_ms = candidate.cost_ms - report.ranked.front().cost_ms;
  }

  const Strategy incumbent = report.winner();
  for (const BoundaryAxis& axis : kAxes) {
    ExplainBoundary boundary;
    if (SearchAxis(cost, candidates, axis, params, incumbent, &boundary)) {
      report.boundaries.push_back(std::move(boundary));
    }
  }
  std::sort(report.boundaries.begin(), report.boundaries.end(),
            [](const ExplainBoundary& a, const ExplainBoundary& b) {
              return a.relative_distance < b.relative_distance;
            });
  return report;
}

std::string ExplainText(const ExplainReport& report) {
  std::string out;
  char buf[256];
  const Params& p = report.params;
  std::snprintf(buf, sizeof(buf),
                "Model %d view @ P=%.3f f=%.4g f_v=%.4g l=%.4g "
                "(N=%.0f, C1=%g C2=%g C3=%g)\n",
                report.model, p.P(), p.f, p.f_v, p.l, p.N, p.C1, p.C2, p.C3);
  out += buf;
  for (size_t i = 0; i < report.ranked.size(); ++i) {
    const ExplainCandidate& c = report.ranked[i];
    std::snprintf(buf, sizeof(buf), "  %zu. %-12s %-72s = %12.1f ms/query",
                  i + 1, costmodel::StrategyName(c.strategy),
                  c.formula.c_str(), c.cost_ms);
    out += buf;
    if (i == 0) {
      out += "  <-- winner";
    } else {
      std::snprintf(buf, sizeof(buf), "  (+%.1f)", c.margin_ms);
      out += buf;
    }
    out += '\n';
  }
  if (report.boundaries.empty()) {
    out += "no winner-region boundary within the searched P/f/f_v/l ranges\n";
    return out;
  }
  out += "nearest winner flip per axis:\n";
  for (const ExplainBoundary& b : report.boundaries) {
    std::snprintf(buf, sizeof(buf),
                  "  %-4s %.4g -> %.4g  (distance %.4g, relative %.3f)  "
                  "flips to %s\n",
                  b.param.c_str(), b.current, b.boundary, b.distance,
                  b.relative_distance,
                  costmodel::StrategyName(b.challenger));
    out += buf;
  }
  const ExplainBoundary* nearest = report.nearest_boundary();
  std::snprintf(buf, sizeof(buf), "nearest overall: %s = %.4g -> %s\n",
                nearest->param.c_str(), nearest->boundary,
                costmodel::StrategyName(nearest->challenger));
  out += buf;
  return out;
}

void WriteExplainJson(common::JsonWriter* w, const ExplainReport& report) {
  const auto write_boundary = [&](const ExplainBoundary& b) {
    w->BeginObject();
    w->KV("param", b.param);
    w->KV("current", b.current);
    w->KV("boundary", b.boundary);
    w->KV("distance", b.distance);
    w->KV("relative_distance", b.relative_distance);
    w->KV("challenger", costmodel::StrategyName(b.challenger));
    w->EndObject();
  };
  w->BeginObject();
  w->KV("model", report.model);
  w->Key("params");
  report.params.WriteJson(w);
  w->KV("winner", costmodel::StrategyName(report.winner()));
  w->KV("winner_cost_ms", report.winner_cost_ms());
  w->Key("candidates");
  w->BeginArray();
  for (const ExplainCandidate& c : report.ranked) {
    w->BeginObject();
    w->KV("strategy", costmodel::StrategyName(c.strategy));
    w->KV("cost_ms", c.cost_ms);
    w->KV("margin_ms", c.margin_ms);
    w->KV("formula", c.formula);
    w->EndObject();
  }
  w->EndArray();
  w->Key("boundaries");
  w->BeginArray();
  for (const ExplainBoundary& b : report.boundaries) write_boundary(b);
  w->EndArray();
  if (report.nearest_boundary() != nullptr) {
    w->Key("nearest_boundary");
    write_boundary(*report.nearest_boundary());
  }
  w->EndObject();
}

}  // namespace viewmat::obs
