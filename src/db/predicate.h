#ifndef VIEWMAT_DB_PREDICATE_H_
#define VIEWMAT_DB_PREDICATE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/schema.h"
#include "db/tuple.h"
#include "db/value.h"

namespace viewmat::db {

/// A closed interval over int64 key values with optional bounds. Used both
/// for t-lock rule indexing (the index interval a view predicate covers,
/// §1) and for choosing clustered-scan ranges in query modification.
struct Interval {
  std::optional<int64_t> lo;  ///< nullopt = unbounded below
  std::optional<int64_t> hi;  ///< nullopt = unbounded above

  bool Contains(int64_t v) const {
    return (!lo || v >= *lo) && (!hi || v <= *hi);
  }
  bool Unbounded() const { return !lo && !hi; }

  /// Intersection (for AND) and convex hull (for OR — conservative).
  static Interval Intersect(const Interval& a, const Interval& b);
  static Interval Hull(const Interval& a, const Interval& b);
};

/// A normalized union of disjoint, sorted, closed intervals. The faithful
/// form of rule indexing: the paper locks "the index intervals covered by
/// one or more clauses of the view predicate" — a set, not a single hull.
/// Exact for arbitrary AND/OR/NOT combinations over one field.
class IntervalSet {
 public:
  /// The empty set (an always-false predicate).
  IntervalSet() = default;
  /// A single interval (normalizing the unbounded/empty cases).
  explicit IntervalSet(const Interval& interval);
  /// The union of `intervals` (empty ones dropped), normalized in one sort.
  explicit IntervalSet(std::vector<Interval> intervals);

  static IntervalSet All() { return IntervalSet(Interval{}); }
  static IntervalSet Empty() { return IntervalSet(); }

  bool Contains(int64_t v) const;
  bool empty() const { return intervals_.empty(); }
  bool IsAll() const;
  size_t size() const { return intervals_.size(); }
  const std::vector<Interval>& intervals() const { return intervals_; }

  /// Exact set algebra (union/intersection/complement over int64).
  static IntervalSet Union(const IntervalSet& a, const IntervalSet& b);
  static IntervalSet Intersect(const IntervalSet& a, const IntervalSet& b);
  static IntervalSet Complement(const IntervalSet& a);

 private:
  void Normalize();

  std::vector<Interval> intervals_;  ///< disjoint, ascending
};

class Predicate;
using PredicateRef = std::shared_ptr<const Predicate>;

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Immutable boolean expression tree over the fields of a single relation's
/// tuple: comparisons against constants combined with AND/OR/NOT. Supports
/// - evaluation against a tuple (the stage-2 screening substitution test:
///   substituting a tuple into the predicate and checking satisfiability
///   reduces to evaluation when, as here, predicates reference one relation);
/// - extraction of the interval the predicate implies on a chosen field
///   (the t-lock interval for stage-1 screening).
class Predicate {
 public:
  /// Always-true predicate (a view over the whole relation, f = 1).
  static PredicateRef True();
  /// field <op> constant.
  static PredicateRef Compare(size_t field, CompareOp op, Value constant);
  /// Convenience: lo <= field <= hi.
  static PredicateRef Between(size_t field, int64_t lo, int64_t hi);
  static PredicateRef And(PredicateRef a, PredicateRef b);
  static PredicateRef Or(PredicateRef a, PredicateRef b);
  static PredicateRef Not(PredicateRef a);

  /// True when the tuple satisfies the predicate.
  bool Evaluate(const Tuple& tuple) const;

  /// The tightest interval I (possibly unbounded) such that every
  /// satisfying tuple has its `field` value inside I. Conservative: may be
  /// wider than optimal (e.g. OR takes the hull), never narrower — exactly
  /// the guarantee t-lock screening needs (no false negatives; false drops
  /// are filtered by stage 2). Only int64 comparisons contribute bounds.
  Interval ImpliedRange(size_t field) const;

  /// The exact set of `field` values that can satisfy the predicate,
  /// treating comparisons on other fields as unconstrained (satisfiable).
  /// Strictly tighter than ImpliedRange: OR keeps disjoint pieces apart
  /// and NOT complements exactly, so t-locks built from this set produce
  /// no single-field false drops. When the predicate references only
  /// `field`, membership is equivalent to satisfiability — the substitution
  /// test of stage 2.
  IntervalSet ImpliedRangeSet(size_t field) const;

  std::string ToString(const Schema* schema = nullptr) const;

  /// True when the predicate's truth value depends only on int64
  /// comparisons against `field` — the precondition for exact complement
  /// analysis in ImpliedRangeSet.
  bool AnalyzableOn(size_t field) const;

 private:
  enum class Kind { kTrue, kCompare, kAnd, kOr, kNot };

  Predicate(Kind kind) : kind_(kind) {}

  Kind kind_;
  // kCompare:
  size_t field_ = 0;
  CompareOp op_ = CompareOp::kEq;
  Value constant_;
  // kAnd/kOr/kNot:
  std::vector<PredicateRef> children_;
};

}  // namespace viewmat::db

#endif  // VIEWMAT_DB_PREDICATE_H_
