#include "view/hybrid.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"

namespace viewmat::view {

HybridStrategy::HybridStrategy(SelectProjectDef def,
                               hr::AdFile::Options ad_options,
                               storage::CostTracker* tracker)
    : DeferredStrategy(std::move(def), ad_options, tracker) {
  // The QM path scans a view-key range as a base-key range.
  VIEWMAT_CHECK(sp_def().BaseKeyField() == sp_def().base->key_field());
}

HybridStrategy::Estimate HybridStrategy::EstimateQuery(int64_t lo,
                                                       int64_t hi) const {
  Estimate est;
  const SelectProjectDef& def = sp_def();
  const storage::CostTracker* tracker = this->tracker();
  const double c1 = tracker != nullptr ? tracker->c1() : 1.0;
  const double c2 = tracker != nullptr ? tracker->c2() : 30.0;
  const double page_size = def.base->pool()->disk()->page_size();

  // Queried tuples: intersect the ask with the view's key range and assume
  // dense keys within it (the scenario the paper models; a production
  // optimizer would consult histograms here).
  const db::IntervalSet view_keys =
      def.predicate->ImpliedRangeSet(def.BaseKeyField());
  const db::IntervalSet asked =
      db::IntervalSet::Intersect(view_keys, db::IntervalSet(db::Interval{lo, hi}));
  double range_tuples = 0;
  for (const db::Interval& i : asked.intervals()) {
    const double a = i.lo ? static_cast<double>(*i.lo) : -1e18;
    const double b = i.hi ? static_cast<double>(*i.hi) : 1e18;
    range_tuples += std::max(0.0, b - a + 1.0);
  }
  range_tuples =
      std::min(range_tuples, static_cast<double>(def.base->tuple_count()));

  // Page math mirrors the storage engine's leaf layout: 8-byte key plus
  // the record (the view additionally stores its duplicate count).
  const double base_tuples_per_page = std::max(
      1.0, page_size / (8.0 + def.base->schema().record_size()));
  const double view_tuples_per_page = std::max(
      1.0, page_size / (8.0 + def.ViewSchema().record_size() + 8.0));

  // --- QM path: read the AD file, scan the base range ------------------
  const double ad_pages = std::ceil(static_cast<double>(ad().page_count()));
  est.qm_ms = c2 * ad_pages +
              c2 * std::ceil(range_tuples / base_tuples_per_page + 1.0) +
              c1 * range_tuples;

  // --- View path: refresh (patch pending tuples), then scan the view ----
  // Each pending differential tuple patches at most one view page at
  // (3 + H) I/Os (the Yao-batched value is lower; this upper bound keeps
  // the choice conservative toward QM, matching §3.5's small-query
  // preference).
  // A refresh is an investment: it clears the differential for every
  // subsequent query, not just this one, so its cost is amortized over an
  // expected reuse horizon (§4's batching argument). Without amortization
  // a myopic comparison defers forever.
  const double pending = static_cast<double>(ad().entry_count());
  const double view_height = 2.0;  // small trees; a constant estimate
  const double refresh_ms =
      pending > 0 ? (c2 * ad_pages + c2 * (3.0 + view_height) * pending) /
                        refresh_amortization_
                  : 0.0;
  est.view_ms = refresh_ms +
                c2 * std::ceil(range_tuples / view_tuples_per_page + 1.0) +
                c1 * range_tuples;
  return est;
}

Status HybridStrategy::Query(int64_t lo, int64_t hi,
                             const MaterializedView::CountedVisitor& visit) {
  storage::CostTracker* tracker = this->tracker();
  const storage::ScopedPhase phase_tag(tracker, storage::Phase::kQuery);
  const obs::ScopedSpan span(storage::TracerOf(tracker), "query");
  if (crash_safe() && stale()) {
    // An interrupted refresh (or untrusted AD file) invalidates both read
    // paths: QM would mis-merge a half-folded differential and the view may
    // be half-patched. Roll forward before choosing.
    VIEWMAT_RETURN_IF_ERROR(Recover());
  }
  // Space backstop (§4): an overfull differential forces a refresh.
  if (pending_tuples() > max_pending_) {
    VIEWMAT_RETURN_IF_ERROR(Refresh());
    ++forced_refreshes_;
  }
  const Estimate est = EstimateQuery(lo, hi);
  if (est.qm_ms < est.view_ms) {
    // Query modification through the hypothetical relation: the view keeps
    // deferring its refresh.
    ++qm_choices_;
    const SelectProjectDef& def = sp_def();
    db::Tuple value;
    return hypothetical()->RangeScanByKey(lo, hi, [&](const db::Tuple& t) {
      if (tracker != nullptr) tracker->ChargeTupleCpu();
      if (!def.MapTuple(t, &value)) return true;
      return visit(value, 1);
    });
  }
  ++view_choices_;
  VIEWMAT_RETURN_IF_ERROR(Refresh());
  return view()->Query(lo, hi, visit);
}

}  // namespace viewmat::view
