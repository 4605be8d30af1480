#include "db/predicate.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace viewmat::db {

Interval Interval::Intersect(const Interval& a, const Interval& b) {
  Interval out;
  if (a.lo && b.lo) {
    out.lo = std::max(*a.lo, *b.lo);
  } else {
    out.lo = a.lo ? a.lo : b.lo;
  }
  if (a.hi && b.hi) {
    out.hi = std::min(*a.hi, *b.hi);
  } else {
    out.hi = a.hi ? a.hi : b.hi;
  }
  return out;
}

Interval Interval::Hull(const Interval& a, const Interval& b) {
  Interval out;
  if (a.lo && b.lo) out.lo = std::min(*a.lo, *b.lo);
  if (a.hi && b.hi) out.hi = std::max(*a.hi, *b.hi);
  return out;
}

IntervalSet::IntervalSet(const Interval& interval) {
  // Reject inverted bounds (an empty interval).
  if (interval.lo && interval.hi && *interval.lo > *interval.hi) return;
  intervals_.push_back(interval);
}

IntervalSet::IntervalSet(std::vector<Interval> intervals)
    : intervals_(std::move(intervals)) {
  std::erase_if(intervals_, [](const Interval& i) {
    return i.lo && i.hi && *i.lo > *i.hi;
  });
  Normalize();
}

bool IntervalSet::Contains(int64_t v) const {
  for (const Interval& i : intervals_) {
    if (i.Contains(v)) return true;
  }
  return false;
}

bool IntervalSet::IsAll() const {
  return intervals_.size() == 1 && intervals_[0].Unbounded();
}

namespace {

/// Orders intervals by lower bound (unbounded first).
bool IntervalLess(const Interval& a, const Interval& b) {
  if (!a.lo) return b.lo.has_value();
  if (!b.lo) return false;
  return *a.lo < *b.lo;
}

/// True when `a` and `b` overlap or touch (can be merged). Assumes a <= b
/// in IntervalLess order.
bool MergeableWithNext(const Interval& a, const Interval& b) {
  if (!a.hi) return true;
  if (!b.lo) return true;
  // Touching counts: [1,5] and [6,9] merge over the integers.
  return *b.lo <= *a.hi || (*a.hi < std::numeric_limits<int64_t>::max() &&
                            *b.lo == *a.hi + 1);
}

}  // namespace

void IntervalSet::Normalize() {
  if (intervals_.empty()) return;
  std::sort(intervals_.begin(), intervals_.end(), IntervalLess);
  std::vector<Interval> out;
  out.push_back(intervals_[0]);
  for (size_t i = 1; i < intervals_.size(); ++i) {
    Interval& last = out.back();
    const Interval& cur = intervals_[i];
    if (MergeableWithNext(last, cur)) {
      if (last.hi && cur.hi) {
        last.hi = std::max(*last.hi, *cur.hi);
      } else {
        last.hi = std::nullopt;
      }
    } else {
      out.push_back(cur);
    }
  }
  intervals_ = std::move(out);
}

IntervalSet IntervalSet::Union(const IntervalSet& a, const IntervalSet& b) {
  IntervalSet out;
  out.intervals_ = a.intervals_;
  out.intervals_.insert(out.intervals_.end(), b.intervals_.begin(),
                        b.intervals_.end());
  out.Normalize();
  return out;
}

IntervalSet IntervalSet::Intersect(const IntervalSet& a,
                                   const IntervalSet& b) {
  IntervalSet out;
  for (const Interval& x : a.intervals_) {
    for (const Interval& y : b.intervals_) {
      const Interval both = Interval::Intersect(x, y);
      if (both.lo && both.hi && *both.lo > *both.hi) continue;
      out.intervals_.push_back(both);
    }
  }
  out.Normalize();
  return out;
}

IntervalSet IntervalSet::Complement(const IntervalSet& a) {
  // Over the closed int64 domain an unbounded side is equivalent to the
  // extreme value, so the complement is just the gaps between (normalized,
  // sorted, disjoint) intervals.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  IntervalSet out;
  int64_t next_uncovered = kMin;
  for (const Interval& i : a.intervals_) {
    const int64_t lo = i.lo ? *i.lo : kMin;
    const int64_t hi = i.hi ? *i.hi : kMax;
    if (lo > next_uncovered) {
      out.intervals_.push_back(Interval{next_uncovered, lo - 1});
    }
    if (hi == kMax) return out;
    next_uncovered = std::max(next_uncovered, hi + 1);
  }
  out.intervals_.push_back(Interval{next_uncovered, kMax});
  return out;
}

PredicateRef Predicate::True() {
  return PredicateRef(new Predicate(Kind::kTrue));
}

PredicateRef Predicate::Compare(size_t field, CompareOp op, Value constant) {
  auto* p = new Predicate(Kind::kCompare);
  p->field_ = field;
  p->op_ = op;
  p->constant_ = std::move(constant);
  return PredicateRef(p);
}

PredicateRef Predicate::Between(size_t field, int64_t lo, int64_t hi) {
  return And(Compare(field, CompareOp::kGe, Value(lo)),
             Compare(field, CompareOp::kLe, Value(hi)));
}

PredicateRef Predicate::And(PredicateRef a, PredicateRef b) {
  auto* p = new Predicate(Kind::kAnd);
  p->children_ = {std::move(a), std::move(b)};
  return PredicateRef(p);
}

PredicateRef Predicate::Or(PredicateRef a, PredicateRef b) {
  auto* p = new Predicate(Kind::kOr);
  p->children_ = {std::move(a), std::move(b)};
  return PredicateRef(p);
}

PredicateRef Predicate::Not(PredicateRef a) {
  auto* p = new Predicate(Kind::kNot);
  p->children_ = {std::move(a)};
  return PredicateRef(p);
}

bool Predicate::Evaluate(const Tuple& tuple) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare: {
      VIEWMAT_CHECK(field_ < tuple.size());
      const int c = tuple.at(field_).Compare(constant_);
      switch (op_) {
        case CompareOp::kEq:
          return c == 0;
        case CompareOp::kNe:
          return c != 0;
        case CompareOp::kLt:
          return c < 0;
        case CompareOp::kLe:
          return c <= 0;
        case CompareOp::kGt:
          return c > 0;
        case CompareOp::kGe:
          return c >= 0;
      }
      return false;
    }
    case Kind::kAnd:
      return children_[0]->Evaluate(tuple) && children_[1]->Evaluate(tuple);
    case Kind::kOr:
      return children_[0]->Evaluate(tuple) || children_[1]->Evaluate(tuple);
    case Kind::kNot:
      return !children_[0]->Evaluate(tuple);
  }
  return false;
}

Interval Predicate::ImpliedRange(size_t field) const {
  switch (kind_) {
    case Kind::kTrue:
      return Interval{};
    case Kind::kCompare: {
      if (field_ != field || constant_.type() != ValueType::kInt64) {
        return Interval{};
      }
      const int64_t v = constant_.AsInt64();
      switch (op_) {
        case CompareOp::kEq:
          return Interval{v, v};
        case CompareOp::kNe:
          return Interval{};
        case CompareOp::kLt:
          return Interval{std::nullopt, v - 1};
        case CompareOp::kLe:
          return Interval{std::nullopt, v};
        case CompareOp::kGt:
          return Interval{v + 1, std::nullopt};
        case CompareOp::kGe:
          return Interval{v, std::nullopt};
      }
      return Interval{};
    }
    case Kind::kAnd:
      return Interval::Intersect(children_[0]->ImpliedRange(field),
                                 children_[1]->ImpliedRange(field));
    case Kind::kOr:
      return Interval::Hull(children_[0]->ImpliedRange(field),
                            children_[1]->ImpliedRange(field));
    case Kind::kNot:
      // A sound bound for NOT would need interval complements; stay
      // conservative (unbounded) instead.
      return Interval{};
  }
  return Interval{};
}

IntervalSet Predicate::ImpliedRangeSet(size_t field) const {
  switch (kind_) {
    case Kind::kTrue:
      return IntervalSet::All();
    case Kind::kCompare: {
      if (field_ != field || constant_.type() != ValueType::kInt64) {
        // A comparison on another field constrains nothing about `field`
        // (it may or may not be satisfiable; stay conservative).
        return IntervalSet::All();
      }
      const int64_t v = constant_.AsInt64();
      switch (op_) {
        case CompareOp::kEq:
          return IntervalSet(Interval{v, v});
        case CompareOp::kNe:
          return IntervalSet::Complement(IntervalSet(Interval{v, v}));
        case CompareOp::kLt:
          if (v == std::numeric_limits<int64_t>::min()) {
            return IntervalSet::Empty();
          }
          return IntervalSet(Interval{std::nullopt, v - 1});
        case CompareOp::kLe:
          return IntervalSet(Interval{std::nullopt, v});
        case CompareOp::kGt:
          if (v == std::numeric_limits<int64_t>::max()) {
            return IntervalSet::Empty();
          }
          return IntervalSet(Interval{v + 1, std::nullopt});
        case CompareOp::kGe:
          return IntervalSet(Interval{v, std::nullopt});
      }
      return IntervalSet::All();
    }
    case Kind::kAnd:
      return IntervalSet::Intersect(children_[0]->ImpliedRangeSet(field),
                                    children_[1]->ImpliedRangeSet(field));
    case Kind::kOr:
      return IntervalSet::Union(children_[0]->ImpliedRangeSet(field),
                                children_[1]->ImpliedRangeSet(field));
    case Kind::kNot: {
      // Complementing is exact only when the child's truth depends solely
      // on int64 comparisons over this field; a child that touches any
      // other field (or a non-integer constant) could be falsified through
      // it, so the sound answer is All.
      if (!children_[0]->AnalyzableOn(field)) return IntervalSet::All();
      return IntervalSet::Complement(children_[0]->ImpliedRangeSet(field));
    }
  }
  return IntervalSet::All();
}

bool Predicate::AnalyzableOn(size_t field) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kCompare:
      return field_ == field && constant_.type() == ValueType::kInt64;
    case Kind::kAnd:
    case Kind::kOr:
      return children_[0]->AnalyzableOn(field) &&
             children_[1]->AnalyzableOn(field);
    case Kind::kNot:
      return children_[0]->AnalyzableOn(field);
  }
  return false;
}

std::string Predicate::ToString(const Schema* schema) const {
  auto field_name = [&](size_t i) -> std::string {
    if (schema != nullptr && i < schema->field_count()) {
      return schema->field(i).name;
    }
    return "$" + std::to_string(i);
  };
  switch (kind_) {
    case Kind::kTrue:
      return "true";
    case Kind::kCompare: {
      const char* op = "?";
      switch (op_) {
        case CompareOp::kEq:
          op = "=";
          break;
        case CompareOp::kNe:
          op = "!=";
          break;
        case CompareOp::kLt:
          op = "<";
          break;
        case CompareOp::kLe:
          op = "<=";
          break;
        case CompareOp::kGt:
          op = ">";
          break;
        case CompareOp::kGe:
          op = ">=";
          break;
      }
      return field_name(field_) + " " + op + " " + constant_.ToString();
    }
    case Kind::kAnd:
      return "(" + children_[0]->ToString(schema) + " and " +
             children_[1]->ToString(schema) + ")";
    case Kind::kOr:
      return "(" + children_[0]->ToString(schema) + " or " +
             children_[1]->ToString(schema) + ")";
    case Kind::kNot:
      return "not (" + children_[0]->ToString(schema) + ")";
  }
  return "?";
}

}  // namespace viewmat::db
