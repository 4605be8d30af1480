#ifndef VIEWMAT_VIEW_VIEW_DEF_H_
#define VIEWMAT_VIEW_VIEW_DEF_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "db/predicate.h"
#include "db/relation.h"
#include "db/schema.h"
#include "db/tuple.h"
#include "storage/cost_tracker.h"

namespace viewmat::view {

/// Model 1 view: V = π_Y(σ_X(R)). `view_key_field` names the field (by
/// index into the projected schema) the materialized copy clusters on —
/// normally the predicate field, mirroring the paper's setup where both R
/// and V are clustered on the field the view predicate restricts.
struct SelectProjectDef {
  db::Relation* base = nullptr;
  db::PredicateRef predicate;        ///< selectivity-f predicate X over base
  std::vector<size_t> projection;    ///< Y: indices into base schema
  size_t view_key_field = 0;         ///< index into projection

  /// Schema of the view's tuples.
  db::Schema ViewSchema() const;

  /// Maps a base tuple through σ and π into *out, overwriting it in place.
  /// Returns false when the tuple fails the predicate (then *out is
  /// untouched). Does not charge costs.
  bool MapTuple(const db::Tuple& base_tuple, db::Tuple* out) const;

  /// Index (within the base schema) of the field the view clusters on.
  size_t BaseKeyField() const { return projection[view_key_field]; }

  Status Validate() const;
};

/// Model 2 view: the natural join of R1 and R2 on a key of R2, restricted
/// by a clause C_f on R1. Only R1 is updated. Every C_f-satisfying R1 tuple
/// joins at most one R2 tuple (R2's join field is its clustering key).
struct JoinDef {
  db::Relation* r1 = nullptr;  ///< clustered B+-tree on the C_f field
  db::Relation* r2 = nullptr;  ///< clustered hash on the join field
  db::PredicateRef cf;         ///< restriction over R1's schema
  size_t r1_join_field = 0;    ///< join attribute in R1's schema
  std::vector<size_t> r1_projection;  ///< indices into R1's schema
  std::vector<size_t> r2_projection;  ///< indices into R2's schema
  size_t view_key_field = 0;   ///< index into the combined projection

  db::Schema ViewSchema() const;

  /// Joins one R1 tuple against R2 through the hash index: returns true and
  /// fills *out in place when the tuple satisfies C_f and a join partner
  /// exists (without a partner *out is untouched).
  /// Charges one C1 tuple-CPU op for the match when `tracker` is non-null
  /// (the probe's I/O is charged by the hash index itself).
  StatusOr<bool> MapTuple(const db::Tuple& r1_tuple, db::Tuple* out,
                          storage::CostTracker* tracker) const;

  Status Validate() const;
};

/// Supported incrementally-maintainable aggregates (Model 3).
enum class AggregateOp { kCount, kSum, kAvg, kMin, kMax };

const char* AggregateOpName(AggregateOp op);

/// Model 3 view: an aggregate over a Model-1-style selection, optionally
/// grouped by an int64 column, e.g.
///
///   define view dept_payroll (dept, sum(salary))
///   where emp.active = 1 group by emp.dept
///
/// Only the aggregate states are materialized (one page holding every
/// group), never the selected tuples. The paper's single aggregate is the
/// ungrouped case: one group, key 0.
struct AggregateDef {
  db::Relation* base = nullptr;
  db::PredicateRef predicate;  ///< selectivity-f predicate over base
  AggregateOp op = AggregateOp::kSum;
  size_t agg_field = 0;        ///< base-schema field being aggregated
  std::optional<size_t> group_field;  ///< GROUP BY column; unset = one group

  /// The group a base tuple falls in: its group column, or 0 when ungrouped.
  int64_t GroupOf(const db::Tuple& t) const;

  /// The value a base tuple contributes: 1 for count, else the aggregated
  /// field.
  double ValueOf(const db::Tuple& t) const;

  Status Validate() const;
};

}  // namespace viewmat::view

#endif  // VIEWMAT_VIEW_VIEW_DEF_H_
