#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"
#include "db/predicate.h"

namespace viewmat::db {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

IntervalSet Of(int64_t lo, int64_t hi) {
  return IntervalSet(Interval{lo, hi});
}

TEST(IntervalSet, EmptyAndAll) {
  EXPECT_TRUE(IntervalSet::Empty().empty());
  EXPECT_FALSE(IntervalSet::Empty().Contains(0));
  EXPECT_TRUE(IntervalSet::All().IsAll());
  EXPECT_TRUE(IntervalSet::All().Contains(kMin));
  EXPECT_TRUE(IntervalSet::All().Contains(kMax));
}

TEST(IntervalSet, InvertedIntervalIsEmpty) {
  EXPECT_TRUE(Of(5, 3).empty());
}

TEST(IntervalSet, UnionMergesOverlapsAndTouches) {
  const IntervalSet u1 = IntervalSet::Union(Of(0, 10), Of(5, 20));
  EXPECT_EQ(u1.size(), 1u);
  EXPECT_TRUE(u1.Contains(15));
  // Touching integers merge: [0,10] ∪ [11,20] = [0,20].
  const IntervalSet u2 = IntervalSet::Union(Of(0, 10), Of(11, 20));
  EXPECT_EQ(u2.size(), 1u);
  // Disjoint stays disjoint.
  const IntervalSet u3 = IntervalSet::Union(Of(0, 10), Of(50, 60));
  EXPECT_EQ(u3.size(), 2u);
  EXPECT_FALSE(u3.Contains(30));
}

TEST(IntervalSet, IntersectProducesGapsCorrectly) {
  const IntervalSet a = IntervalSet::Union(Of(0, 10), Of(20, 30));
  const IntervalSet b = Of(5, 25);
  const IntervalSet i = IntervalSet::Intersect(a, b);
  EXPECT_EQ(i.size(), 2u);
  EXPECT_TRUE(i.Contains(7));
  EXPECT_FALSE(i.Contains(15));
  EXPECT_TRUE(i.Contains(22));
  EXPECT_FALSE(i.Contains(28));
}

TEST(IntervalSet, ComplementOfMiddleInterval) {
  const IntervalSet c = IntervalSet::Complement(Of(10, 20));
  EXPECT_TRUE(c.Contains(9));
  EXPECT_FALSE(c.Contains(10));
  EXPECT_FALSE(c.Contains(20));
  EXPECT_TRUE(c.Contains(21));
  EXPECT_TRUE(c.Contains(kMin));
  EXPECT_TRUE(c.Contains(kMax));
}

TEST(IntervalSet, ComplementEdgesOfDomain) {
  EXPECT_TRUE(IntervalSet::Complement(IntervalSet::All()).empty());
  const IntervalSet c = IntervalSet::Complement(IntervalSet::Empty());
  EXPECT_TRUE(c.Contains(0));
  // Interval reaching kMax: complement stops below its lo.
  const IntervalSet c2 =
      IntervalSet::Complement(IntervalSet(Interval{5, std::nullopt}));
  EXPECT_TRUE(c2.Contains(4));
  EXPECT_FALSE(c2.Contains(5));
}

TEST(IntervalSet, DoubleComplementIsIdentityOnMembership) {
  const IntervalSet a = IntervalSet::Union(Of(0, 10), Of(100, 200));
  const IntervalSet cc = IntervalSet::Complement(IntervalSet::Complement(a));
  for (const int64_t v : {-5, 0, 10, 11, 50, 100, 200, 201}) {
    EXPECT_EQ(cc.Contains(v), a.Contains(v)) << v;
  }
}

TEST(ImpliedRangeSet, NeIsExactComplement) {
  auto p = Predicate::Compare(0, CompareOp::kNe, Value(int64_t{7}));
  const IntervalSet s = p->ImpliedRangeSet(0);
  EXPECT_FALSE(s.Contains(7));
  EXPECT_TRUE(s.Contains(6));
  EXPECT_TRUE(s.Contains(8));
}

TEST(ImpliedRangeSet, OrKeepsDisjointPieces) {
  auto p = Predicate::Or(Predicate::Between(0, 0, 5),
                         Predicate::Between(0, 100, 105));
  const IntervalSet s = p->ImpliedRangeSet(0);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FALSE(s.Contains(50));  // the hull-based ImpliedRange admits this
  EXPECT_TRUE(p->ImpliedRange(0).Contains(50));
}

TEST(ImpliedRangeSet, NotOfSingleFieldIsExact) {
  auto p = Predicate::Not(Predicate::Between(0, 10, 20));
  const IntervalSet s = p->ImpliedRangeSet(0);
  EXPECT_TRUE(s.Contains(9));
  EXPECT_FALSE(s.Contains(15));
  EXPECT_TRUE(s.Contains(21));
}

TEST(ImpliedRangeSet, NotTouchingOtherFieldsStaysAll) {
  auto p = Predicate::Not(
      Predicate::And(Predicate::Between(0, 10, 20),
                     Predicate::Compare(1, CompareOp::kEq,
                                        Value(int64_t{5}))));
  EXPECT_TRUE(p->ImpliedRangeSet(0).IsAll());
}

TEST(ImpliedRangeSet, BoundaryComparisonsAtDomainEdges) {
  auto lt_min = Predicate::Compare(0, CompareOp::kLt, Value(kMin));
  EXPECT_TRUE(lt_min->ImpliedRangeSet(0).empty());
  auto gt_max = Predicate::Compare(0, CompareOp::kGt, Value(kMax));
  EXPECT_TRUE(gt_max->ImpliedRangeSet(0).empty());
}

// ---- Randomized soundness + exactness fuzz --------------------------------

PredicateRef RandomPredicate(Random* rng, int depth, size_t fields) {
  const int kind = depth <= 0 ? 0 : static_cast<int>(rng->Uniform(4));
  switch (kind) {
    default:
    case 0: {
      const size_t field = rng->Uniform(fields);
      const auto op = static_cast<CompareOp>(rng->Uniform(6));
      return Predicate::Compare(field, op, Value(rng->UniformInt(-50, 50)));
    }
    case 1:
      return Predicate::And(RandomPredicate(rng, depth - 1, fields),
                            RandomPredicate(rng, depth - 1, fields));
    case 2:
      return Predicate::Or(RandomPredicate(rng, depth - 1, fields),
                           RandomPredicate(rng, depth - 1, fields));
    case 3:
      return Predicate::Not(RandomPredicate(rng, depth - 1, fields));
  }
}

TEST(ImpliedRangeSet, FuzzSoundnessOverTwoFields) {
  // Soundness: any satisfying tuple's field value lies in the set.
  Random rng(2027);
  for (int trial = 0; trial < 300; ++trial) {
    const PredicateRef p = RandomPredicate(&rng, 3, 2);
    const IntervalSet s = p->ImpliedRangeSet(0);
    for (int64_t v0 = -60; v0 <= 60; v0 += 3) {
      for (int64_t v1 : {-20, 0, 20}) {
        const Tuple t({Value(v0), Value(v1)});
        if (p->Evaluate(t)) {
          ASSERT_TRUE(s.Contains(v0))
              << p->ToString() << " v0=" << v0 << " v1=" << v1;
        }
      }
    }
  }
}

TEST(ImpliedRangeSet, FuzzExactnessOnSingleFieldPredicates) {
  // Exactness: when the predicate references only field 0, membership in
  // the set is equivalent to satisfiability.
  Random rng(2028);
  for (int trial = 0; trial < 300; ++trial) {
    const PredicateRef p = RandomPredicate(&rng, 3, 1);
    const IntervalSet s = p->ImpliedRangeSet(0);
    for (int64_t v = -60; v <= 60; ++v) {
      const Tuple t({Value(v)});
      ASSERT_EQ(s.Contains(v), p->Evaluate(t))
          << p->ToString() << " v=" << v;
    }
  }
}

TEST(ImpliedRangeSet, FuzzSetAlgebraMatchesMembership) {
  // Union/Intersect/Complement agree with pointwise boolean algebra.
  Random rng(2029);
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet a;
    IntervalSet b;
    for (int i = 0; i < 3; ++i) {
      const int64_t lo1 = rng.UniformInt(-40, 40);
      a = IntervalSet::Union(a, Of(lo1, lo1 + rng.UniformInt(0, 20)));
      const int64_t lo2 = rng.UniformInt(-40, 40);
      b = IntervalSet::Union(b, Of(lo2, lo2 + rng.UniformInt(0, 20)));
    }
    const IntervalSet u = IntervalSet::Union(a, b);
    const IntervalSet i = IntervalSet::Intersect(a, b);
    const IntervalSet c = IntervalSet::Complement(a);
    for (int64_t v = -70; v <= 70; v += 2) {
      ASSERT_EQ(u.Contains(v), a.Contains(v) || b.Contains(v)) << v;
      ASSERT_EQ(i.Contains(v), a.Contains(v) && b.Contains(v)) << v;
      ASSERT_EQ(c.Contains(v), !a.Contains(v)) << v;
    }
  }
}

TEST(IntervalSet, AdjacentIntegerIntervalsMergeToOne) {
  // Closed integer intervals: [1,3] and [4,6] cover a contiguous range, so
  // the normalized form is the single interval [1,6] — not two entries.
  const IntervalSet merged = IntervalSet::Union(Of(1, 3), Of(4, 6));
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(*merged.intervals()[0].lo, 1);
  EXPECT_EQ(*merged.intervals()[0].hi, 6);
  // ...while a one-integer gap must stay split.
  const IntervalSet split = IntervalSet::Union(Of(1, 3), Of(5, 6));
  ASSERT_EQ(split.size(), 2u);
  EXPECT_FALSE(split.Contains(4));
}

TEST(IntervalSet, ZeroWidthIntervalIsASinglePoint) {
  const IntervalSet point = Of(5, 5);
  EXPECT_FALSE(point.empty());
  EXPECT_TRUE(point.Contains(5));
  EXPECT_FALSE(point.Contains(4));
  EXPECT_FALSE(point.Contains(6));
  // Point + adjacent point merge; point union empty is the point.
  EXPECT_EQ(IntervalSet::Union(Of(5, 5), Of(6, 6)).size(), 1u);
  const IntervalSet with_empty =
      IntervalSet::Union(point, IntervalSet::Empty());
  ASSERT_EQ(with_empty.size(), 1u);
  EXPECT_TRUE(with_empty.Contains(5));
}

TEST(IntervalSet, PropertyNormalFormMatchesBruteForceMembership) {
  // For random unions of small intervals the normalized representation
  // must (a) agree pointwise with a brute-force membership table and
  // (b) be canonical: disjoint, ascending, and gap-separated (no two
  // entries an integer apart — those would have merged).
  Random rng(4099);
  for (int trial = 0; trial < 300; ++trial) {
    constexpr int64_t kLo = 0, kHi = 48;
    std::vector<bool> member(kHi + 1, false);
    IntervalSet set;
    const int pieces = 1 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < pieces; ++i) {
      const int64_t lo = rng.UniformInt(kLo, kHi);
      const int64_t hi = lo + rng.UniformInt(0, 8);
      set = IntervalSet::Union(set, Of(lo, hi));
      for (int64_t v = lo; v <= std::min(hi, kHi); ++v) member[v] = true;
    }
    for (int64_t v = kLo; v <= kHi; ++v) {
      ASSERT_EQ(set.Contains(v), static_cast<bool>(member[v]))
          << "trial " << trial << " v=" << v;
    }
    const auto& ivs = set.intervals();
    for (size_t i = 1; i < ivs.size(); ++i) {
      ASSERT_TRUE(ivs[i - 1].hi && ivs[i].lo);
      ASSERT_GT(*ivs[i].lo, *ivs[i - 1].hi + 1)
          << "trial " << trial << ": adjacent intervals left unmerged";
    }
  }
}

TEST(IntervalSet, PropertyIntersectionIsSymmetricAndUnionCommutes) {
  Random rng(5113);
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet a;
    IntervalSet b;
    for (int i = 0; i < 3; ++i) {
      const int64_t lo1 = rng.UniformInt(-30, 30);
      a = IntervalSet::Union(a, Of(lo1, lo1 + rng.UniformInt(0, 12)));
      const int64_t lo2 = rng.UniformInt(-30, 30);
      b = IntervalSet::Union(b, Of(lo2, lo2 + rng.UniformInt(0, 12)));
    }
    const IntervalSet ab = IntervalSet::Intersect(a, b);
    const IntervalSet ba = IntervalSet::Intersect(b, a);
    const IntervalSet uab = IntervalSet::Union(a, b);
    const IntervalSet uba = IntervalSet::Union(b, a);
    for (int64_t v = -50; v <= 50; ++v) {
      ASSERT_EQ(ab.Contains(v), ba.Contains(v)) << v;
      ASSERT_EQ(uab.Contains(v), uba.Contains(v)) << v;
    }
    // Canonical forms are identical structurally, not just pointwise.
    ASSERT_EQ(ab.size(), ba.size());
    ASSERT_EQ(uab.size(), uba.size());
    // Empty-set laws: A ∩ ∅ = ∅ and A ∪ ∅ = A.
    EXPECT_TRUE(IntervalSet::Intersect(a, IntervalSet::Empty()).empty());
    const IntervalSet a_or_empty =
        IntervalSet::Union(a, IntervalSet::Empty());
    for (int64_t v = -50; v <= 50; v += 5) {
      ASSERT_EQ(a_or_empty.Contains(v), a.Contains(v)) << v;
    }
  }
}

}  // namespace
}  // namespace viewmat::db
