#ifndef VIEWMAT_VIEW_SCREENING_MODES_H_
#define VIEWMAT_VIEW_SCREENING_MODES_H_

#include <cstdint>
#include <set>

#include "db/predicate.h"
#include "db/transaction.h"
#include "storage/cost_tracker.h"
#include "view/view_def.h"

namespace viewmat::view {

/// The three update-screening schemes §1 surveys. All decide, for each
/// tuple inserted into or deleted from a base relation, whether it might
/// change the view; they differ in cost profile.
enum class ScreeningMode {
  /// Rule indexing [Ston86] (the paper's choice, used by TLockScreen):
  /// stage 1 checks the t-locked index interval for free; only interval
  /// hits pay the C1 substitution. Expected cost C1·f per updated tuple.
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

/// A screen implementing all three modes behind one interface, charging
/// the tracker per the mode's cost profile. For kRuleIndex it defers to
/// the same two-stage logic as TLockScreen.
class UpdateScreen {
 public:
  UpdateScreen(ScreeningMode mode, db::PredicateRef predicate,
               size_t lock_field, std::set<size_t> fields_read,
               storage::CostTracker* tracker);

  /// Per-transaction phase: returns true when the whole net change is
  /// readily ignorable (kRiu only; the other modes never short-circuit).
  /// Free of per-tuple cost.
  bool TransactionIsIgnorable(const db::NetChange& net);

  /// Per-tuple phase: true when the tuple may affect the view. Call only
  /// when TransactionIsIgnorable returned false.
  bool Passes(const db::Tuple& t);

  ScreeningMode mode() const { return mode_; }
  uint64_t screened() const { return screened_; }
  uint64_t substitutions() const { return substitutions_; }
  uint64_t riu_transactions() const { return riu_transactions_; }

 private:
  ScreeningMode mode_;
  db::PredicateRef predicate_;
  size_t lock_field_;
  db::IntervalSet intervals_;
  std::set<size_t> fields_read_;
  storage::CostTracker* tracker_;
  uint64_t screened_ = 0;
  uint64_t substitutions_ = 0;
  uint64_t riu_transactions_ = 0;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_SCREENING_MODES_H_
