#ifndef VIEWMAT_VIEW_SCREENING_H_
#define VIEWMAT_VIEW_SCREENING_H_

#include <cstdint>
#include <set>

#include "db/predicate.h"
#include "db/transaction.h"
#include "db/tuple.h"
#include "storage/cost_tracker.h"
#include "view/view_def.h"

namespace viewmat::view {

/// The three update-screening schemes §1 surveys. All decide, for each
/// tuple inserted into or deleted from a base relation, whether it might
/// change the view; they differ in cost profile, never in outcome.
enum class ScreeningMode {
  /// Rule indexing [Ston86], the paper's choice and every maintainer's
  /// default: stage 1 checks the t-locked index intervals for free; only
  /// interval hits pay the C1 substitution. Expected cost C1·f per updated
  /// tuple.
  kRuleIndex,
  /// [Blak86]: substitute every tuple into the view predicate. Cost C1 per
  /// updated tuple, unconditionally.
  kSubstituteAll,
  /// Buneman-Clemons [Bune79]: a compile-time phase classifies the whole
  /// command as a readily ignorable update (RIU) when it writes no field
  /// the view reads — per-transaction cost only. Non-RIU commands fall
  /// back to per-tuple substitution at C1 each.
  kRiu,
};

const char* ScreeningModeName(ScreeningMode mode);

/// The set of base-schema field indices a view definition reads (predicate
/// fields plus projected/joined/aggregated/grouping fields) — what the RIU
/// compile-time check compares against a command's written fields.
std::set<size_t> FieldsRead(const SelectProjectDef& def);
std::set<size_t> FieldsRead(const JoinDef& def);     ///< fields of R1
std::set<size_t> FieldsRead(const AggregateDef& def);

/// The set of field indices a net change writes: for updates, the fields
/// that actually differ between the deleted and inserted versions; inserts
/// and deletes of whole tuples write every field.
std::set<size_t> FieldsWritten(const db::NetChange& net);

/// Update screening, charging the tracker per the mode's cost profile.
///
/// In the default rule-indexing mode it is the two-stage screen of §1:
///
///  Stage 1 — t-locks: the intervals of the base relation's clustered
///  index covered by the view predicate are marked. A modified tuple whose
///  key falls outside every marked interval implicitly fails the screen at
///  essentially no cost (the index record it disturbs carries no lock).
///
///  Stage 2 — satisfiability: a tuple that breaks a t-lock is substituted
///  into the view predicate (cost C1, charged to the tracker). Survivors
///  are marked as relevant to the view; the maintenance engines only
///  process marked tuples.
///
/// Stage 1 can produce false drops (it covers intervals of a single field)
/// but never false negatives — guaranteed by Predicate::ImpliedRangeSet
/// being conservative. The other two modes skip stage 1 and substitute
/// every tuple; RIU first lets TransactionIsIgnorable wave a whole command
/// through.
class UpdateScreen {
 public:
  /// `lock_field` is the index (in the base schema) of the clustered field
  /// whose index carries the t-locks. `fields_read` is what the RIU mode
  /// compares a command's written fields against; the other modes ignore
  /// it.
  UpdateScreen(db::PredicateRef predicate, size_t lock_field,
               storage::CostTracker* tracker,
               ScreeningMode mode = ScreeningMode::kRuleIndex,
               std::set<size_t> fields_read = {});

  static UpdateScreen ForSelectProject(
      const SelectProjectDef& def, storage::CostTracker* tracker,
      ScreeningMode mode = ScreeningMode::kRuleIndex);
  static UpdateScreen ForJoin(const JoinDef& def,
                              storage::CostTracker* tracker);
  static UpdateScreen ForAggregate(const AggregateDef& def,
                                   storage::CostTracker* tracker);

  /// Per-transaction phase: true when the whole net change is readily
  /// ignorable (kRiu only; the other modes never short-circuit). Free of
  /// per-tuple cost.
  bool TransactionIsIgnorable(const db::NetChange& net);

  /// Per-tuple phase: true when the tuple may affect the view. Charges C1
  /// only when the tuple is substituted into the predicate.
  bool Passes(const db::Tuple& t);

  ScreeningMode mode() const { return mode_; }
  /// Observability for tests and the screening ablation bench.
  uint64_t screened() const { return screened_; }
  /// Tuples substituted into the predicate (each charged C1): in
  /// rule-indexing mode, the t-lock hits.
  uint64_t substitutions() const { return substitutions_; }
  uint64_t passes() const { return passes_; }
  uint64_t riu_transactions() const { return riu_transactions_; }
  /// The t-locked key ranges (exact, possibly several disjoint pieces).
  const db::IntervalSet& intervals() const { return intervals_; }

 private:
  ScreeningMode mode_;
  db::PredicateRef predicate_;
  size_t lock_field_;
  db::IntervalSet intervals_;
  std::set<size_t> fields_read_;
  storage::CostTracker* tracker_;
  uint64_t screened_ = 0;
  uint64_t substitutions_ = 0;
  uint64_t passes_ = 0;
  uint64_t riu_transactions_ = 0;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_SCREENING_H_
