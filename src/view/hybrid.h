#ifndef VIEWMAT_VIEW_HYBRID_H_
#define VIEWMAT_VIEW_HYBRID_H_

#include <atomic>

#include "common/status.h"
#include "hr/ad_file.h"
#include "storage/cost_tracker.h"
#include "view/deferred.h"
#include "view/materialized_view.h"
#include "view/view_def.h"

namespace viewmat::view {

/// §3.3's database-design observation, implemented: "a query optimizer
/// could choose to process a view query in one of two ways, depending on
/// the query predicate ... query modification [or] against the
/// materialized view, using the clustered view index as an alternate
/// access path."
///
/// The hybrid IS a deferred strategy — same screening, same AD file, same
/// journaled refresh and recovery protocol — plus a per-query router. Each
/// query is costed both ways with the paper's unit prices:
///
///   QM path:   C_ADread (scan the differential) + base range pages·C2
///              + range tuples·C1   — and the view stays unrefreshed;
///   view path: refresh (patch X1 view pages at (3+H)·C2 each)
///              + view range pages·C2 + tuples·C1.
///
/// Small queries over a heavily-updated view go to QM (the EMP-DEPT
/// regime); large queries amortize the refresh and go to the view. Either
/// way the answer is identical (tested), only the money moves.
///
/// The router replaces DeferredStrategy::Query outright: the hybrid rolls
/// an interrupted refresh forward before choosing a path and surfaces
/// recovery failures, rather than retrying and serving degraded reads.
class HybridStrategy : public DeferredStrategy {
 public:
  HybridStrategy(SelectProjectDef def, hr::AdFile::Options ad_options,
                 storage::CostTracker* tracker);

  Status Query(int64_t lo, int64_t hi,
               const MaterializedView::CountedVisitor& visit) override;
  const char* name() const override { return "hybrid"; }

  uint64_t qm_choices() const { return qm_choices_; }
  uint64_t view_choices() const { return view_choices_; }
  uint64_t forced_refreshes() const { return forced_refreshes_; }

  /// §4's space backstop: "if the A and D sets ... use up all available
  /// disk space, then of course the refresh algorithm must be used". When
  /// the differential exceeds this many entries, the next query refreshes
  /// regardless of the per-query cost comparison (otherwise a QM-favoring
  /// workload would grow the AD file without bound).
  void set_max_pending(uint64_t n) { max_pending_ = n; }

  /// Queries a refresh is expected to serve before the differential regrows
  /// (divides the refresh term in the view-path estimate). 1 = fully
  /// myopic, which systematically defers; the default models a handful of
  /// queries sharing each refresh.
  void set_refresh_amortization(double q) { refresh_amortization_ = q; }

  /// The optimizer's cost estimates for a candidate query (exposed for
  /// tests and the ablation bench).
  struct Estimate {
    double qm_ms = 0;
    double view_ms = 0;
  };
  Estimate EstimateQuery(int64_t lo, int64_t hi) const;

 private:
  // Atomic: bumped on the query read path, which the server may run from
  // several workers at once when no refresh work is pending.
  std::atomic<uint64_t> qm_choices_{0};
  std::atomic<uint64_t> view_choices_{0};
  uint64_t forced_refreshes_ = 0;
  uint64_t max_pending_ = 256;
  double refresh_amortization_ = 4.0;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_HYBRID_H_
