#include "view/aggregate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "testing/view_fixture.h"
#include "view/screening.h"

namespace viewmat::view {
namespace {

using testing::ViewTestDb;

// --- AggregateState ---------------------------------------------------------

TEST(AggregateState, SumCountAvg) {
  AggregateState sum(AggregateOp::kSum);
  sum.ApplyInsert(1.0);
  sum.ApplyInsert(2.5);
  EXPECT_DOUBLE_EQ(sum.Current()->AsDouble(), 3.5);

  AggregateState count(AggregateOp::kCount);
  count.ApplyInsert(1.0);
  count.ApplyInsert(1.0);
  EXPECT_EQ(count.Current()->AsInt64(), 2);

  AggregateState avg(AggregateOp::kAvg);
  avg.ApplyInsert(1.0);
  avg.ApplyInsert(3.0);
  EXPECT_DOUBLE_EQ(avg.Current()->AsDouble(), 2.0);
}

TEST(AggregateState, DeletesAreExactForSumLikeOps) {
  AggregateState sum(AggregateOp::kSum);
  sum.ApplyInsert(5.0);
  sum.ApplyInsert(7.0);
  EXPECT_TRUE(sum.ApplyDelete(5.0));
  EXPECT_DOUBLE_EQ(sum.Current()->AsDouble(), 7.0);
  EXPECT_TRUE(sum.exact());
}

TEST(AggregateState, MinMaxTrackInserts) {
  AggregateState mn(AggregateOp::kMin);
  mn.ApplyInsert(5.0);
  mn.ApplyInsert(2.0);
  mn.ApplyInsert(9.0);
  EXPECT_DOUBLE_EQ(mn.Current()->AsDouble(), 2.0);
  AggregateState mx(AggregateOp::kMax);
  mx.ApplyInsert(5.0);
  mx.ApplyInsert(9.0);
  EXPECT_DOUBLE_EQ(mx.Current()->AsDouble(), 9.0);
}

TEST(AggregateState, DeletingExtremumInvalidatesMinMax) {
  AggregateState mn(AggregateOp::kMin);
  mn.ApplyInsert(5.0);
  mn.ApplyInsert(2.0);
  EXPECT_FALSE(mn.ApplyDelete(2.0));  // extremum left: recompute needed
  EXPECT_FALSE(mn.exact());
  EXPECT_EQ(mn.Current().status().code(), StatusCode::kFailedPrecondition);
}

TEST(AggregateState, DeletingNonExtremumKeepsMinMaxExact) {
  AggregateState mn(AggregateOp::kMin);
  mn.ApplyInsert(5.0);
  mn.ApplyInsert(2.0);
  EXPECT_TRUE(mn.ApplyDelete(5.0));
  EXPECT_DOUBLE_EQ(mn.Current()->AsDouble(), 2.0);
}

TEST(AggregateState, EmptySetBehaviour) {
  AggregateState sum(AggregateOp::kSum);
  EXPECT_DOUBLE_EQ(sum.Current()->AsDouble(), 0.0);
  AggregateState count(AggregateOp::kCount);
  EXPECT_EQ(count.Current()->AsInt64(), 0);
  AggregateState avg(AggregateOp::kAvg);
  EXPECT_EQ(avg.Current().status().code(), StatusCode::kNotFound);
  AggregateState mn(AggregateOp::kMin);
  EXPECT_EQ(mn.Current().status().code(), StatusCode::kNotFound);
}

TEST(AggregateState, DrainToEmptyRestoresExactness) {
  AggregateState mn(AggregateOp::kMin);
  mn.ApplyInsert(2.0);
  EXPECT_TRUE(mn.ApplyDelete(2.0));  // empty again: exact by definition
  EXPECT_TRUE(mn.exact());
}

TEST(AggregateState, SerializeRoundTrips) {
  AggregateState s(AggregateOp::kAvg);
  s.ApplyInsert(4.0);
  s.ApplyInsert(8.0);
  uint8_t buf[AggregateState::kSerializedSize];
  s.Serialize(buf);
  const AggregateState back = AggregateState::Deserialize(AggregateOp::kAvg, buf);
  EXPECT_TRUE(back == s);
  EXPECT_DOUBLE_EQ(back.Current()->AsDouble(), 6.0);
}

// --- Shared helpers ------------------------------------------------------------

using Answer = std::map<db::Tuple, int64_t>;

constexpr AggregateOp kOps[] = {AggregateOp::kCount, AggregateOp::kSum,
                                AggregateOp::kAvg, AggregateOp::kMin,
                                AggregateOp::kMax};

/// The family's two shapes over ViewTestDb, both over k1 < 60: the paper's
/// single aggregate (group 0) and the same aggregate grouped by k2 =
/// k1 % 20 (20 groups).
constexpr bool kShapes[] = {false, true};

AggregateDef Def(const ViewTestDb& db, AggregateOp op, bool grouped) {
  AggregateDef def = db.AggDef(op);
  if (grouped) def.group_field = 1;
  return def;
}

enum class Kind { kImmediate, kDeferred, kRecompute };
constexpr Kind kKinds[] = {Kind::kImmediate, Kind::kDeferred, Kind::kRecompute};

std::unique_ptr<ViewStrategy> Make(Kind kind, ViewTestDb& db,
                                   const AggregateDef& def) {
  switch (kind) {
    case Kind::kImmediate: {
      auto s = std::make_unique<ImmediateAggregateStrategy>(def, &db.tracker_);
      VIEWMAT_CHECK(s->InitializeFromBase().ok());
      return s;
    }
    case Kind::kDeferred: {
      auto s = std::make_unique<DeferredAggregateStrategy>(
          def, db.AdOptions(), &db.tracker_);
      VIEWMAT_CHECK(s->InitializeFromBase().ok());
      return s;
    }
    case Kind::kRecompute:
      break;
  }
  return std::make_unique<RecomputeAggregateStrategy>(def, &db.tracker_);
}

db::Tuple Row(int64_t group, double v) {
  return db::Tuple({db::Value(group), db::Value(v)});
}

/// The view's answer, computed from the fixture's oracle of v per key.
Answer Expected(const ViewTestDb& db, const AggregateDef& def) {
  std::map<int64_t, std::vector<double>> members;
  for (const auto& [k, v] : db.v_oracle_) {
    if (k < ViewTestDb::kFCut) {
      members[def.group_field ? k % ViewTestDb::kR2N : 0].push_back(v);
    }
  }
  Answer out;
  for (const auto& [group, vs] : members) {
    const double sum = std::accumulate(vs.begin(), vs.end(), 0.0);
    db::Value value;
    switch (def.op) {
      case AggregateOp::kCount:
        value = db::Value(static_cast<int64_t>(vs.size()));
        break;
      case AggregateOp::kSum:
        value = db::Value(sum);
        break;
      case AggregateOp::kAvg:
        value = db::Value(sum / static_cast<double>(vs.size()));
        break;
      case AggregateOp::kMin:
        value = db::Value(*std::min_element(vs.begin(), vs.end()));
        break;
      case AggregateOp::kMax:
        value = db::Value(*std::max_element(vs.begin(), vs.end()));
        break;
    }
    out[db::Tuple({db::Value(group), value})] = 1;
  }
  return out;
}

/// The ungrouped view's one value.
double Scalar(ViewTestDb& db, ViewStrategy* s) {
  const Answer answer = db.QueryAll(s);
  VIEWMAT_CHECK(answer.size() == 1);
  return answer.begin()->first.at(1).Numeric();
}

// --- Strategies --------------------------------------------------------------

double ExpectedSum(const ViewTestDb& db) {
  double sum = 0;
  for (const auto& [k, v] : db.v_oracle_) {
    if (k < ViewTestDb::kFCut) sum += v;
  }
  return sum;
}

TEST(RecomputeAggregate, ComputesFreshEveryTime) {
  ViewTestDb db;
  RecomputeAggregateStrategy strategy(db.AggDef(AggregateOp::kSum),
                                      &db.tracker_);
  EXPECT_DOUBLE_EQ(Scalar(db, &strategy), ExpectedSum(db));
  ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(5, 500.0)).ok());
  EXPECT_DOUBLE_EQ(Scalar(db, &strategy), ExpectedSum(db));
}

TEST(ImmediateAggregate, MaintainsSumAcrossTransactions) {
  ViewTestDb db;
  ImmediateAggregateStrategy strategy(db.AggDef(AggregateOp::kSum),
                                      &db.tracker_);
  ASSERT_TRUE(strategy.InitializeFromBase().ok());
  EXPECT_DOUBLE_EQ(Scalar(db, &strategy), ExpectedSum(db));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(i * 7, i * 3.25)).ok());
  }
  EXPECT_NEAR(Scalar(db, &strategy), ExpectedSum(db), 1e-6);
}

TEST(ImmediateAggregate, MinRecomputesWhenExtremumLeaves) {
  for (const bool grouped : kShapes) {
    SCOPED_TRACE(grouped ? "grouped" : "ungrouped");
    ViewTestDb db;
    const AggregateDef def = Def(db, AggregateOp::kMin, grouped);
    ImmediateAggregateStrategy strategy(def, &db.tracker_);
    ASSERT_TRUE(strategy.InitializeFromBase().ok());
    // v = k1: the view's minimum is key 0; group 5 holds keys {5, 25, 45}.
    const int64_t key = grouped ? 5 : 0;
    EXPECT_EQ(db.QueryAll(&strategy, key, key),
              (Answer{{Row(key, static_cast<double>(key)), 1}}));
    // Raise the minimum's value: forces a recomputation.
    ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(key, 999.0)).ok());
    EXPECT_EQ(strategy.recompute_count(), 1u);
    EXPECT_EQ(db.QueryAll(&strategy, key, key),
              (Answer{{Row(key, grouped ? 25.0 : 1.0), 1}}));
    EXPECT_EQ(db.QueryAll(&strategy), Expected(db, def));
  }
}

TEST(DeferredAggregate, RefreshesAtQueryTime) {
  ViewTestDb db;
  DeferredAggregateStrategy strategy(db.AggDef(AggregateOp::kSum),
                                     db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(strategy.InitializeFromBase().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(i, 100.0 + i)).ok());
  }
  EXPECT_NEAR(Scalar(db, &strategy), ExpectedSum(db), 1e-6);
}

TEST(DeferredAggregate, ScanVisibleBaseSeesTheDifferential) {
  ViewTestDb db;
  DeferredAggregateStrategy strategy(db.AggDef(AggregateOp::kSum),
                                     db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(strategy.InitializeFromBase().ok());
  const auto visible = [&] {
    std::multiset<db::Tuple> out;
    EXPECT_TRUE(strategy
                    .ScanVisibleBase(db.base_,
                                     [&](const db::Tuple& t) {
                                       out.insert(t);
                                       return true;
                                     })
                    .ok());
    return out;
  };
  const auto base = [&] {
    std::multiset<db::Tuple> out;
    EXPECT_TRUE(db.base_->Scan([&](const db::Tuple& t) {
                  out.insert(t);
                  return true;
                }).ok());
    return out;
  };

  ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(7, 700.0)).ok());
  ASSERT_GT(strategy.pending_tuples(), 0u);
  // The update sits in the differential: the visible base shows the new
  // tuple and not the old one, while the stored base still has the old.
  std::multiset<db::Tuple> seen = visible();
  EXPECT_EQ(seen.size(), static_cast<size_t>(ViewTestDb::kN));
  EXPECT_EQ(seen.count(db.BaseRow(7, 700.0)), 1u);
  EXPECT_EQ(seen.count(db.BaseRow(7, 7.0)), 0u);
  EXPECT_EQ(base().count(db.BaseRow(7, 7.0)), 1u);

  // A query folds the differential into the base: both scans agree.
  db.QueryAll(&strategy);
  EXPECT_EQ(strategy.pending_tuples(), 0u);
  seen = visible();
  EXPECT_EQ(seen, base());
  EXPECT_EQ(seen.count(db.BaseRow(7, 700.0)), 1u);
}

TEST(AllAggregateStrategies, AgreeOnRandomHistory) {
  for (const bool grouped : kShapes) {
    for (const AggregateOp op : kOps) {
      SCOPED_TRACE(std::string(AggregateOpName(op)) +
                   (grouped ? " grouped" : " ungrouped"));
      Random rng(55);
      ViewTestDb dbs[3];
      std::unique_ptr<ViewStrategy> strategies[3];
      for (size_t i = 0; i < 3; ++i) {
        strategies[i] = Make(kKinds[i], dbs[i], Def(dbs[i], op, grouped));
      }
      for (int t = 0; t < 40; ++t) {
        const int64_t key = rng.UniformInt(0, ViewTestDb::kN - 1);
        const double v = static_cast<double>(rng.UniformInt(0, 1000));
        for (size_t i = 0; i < 3; ++i) {
          ASSERT_TRUE(
              strategies[i]->OnTransaction(dbs[i].UpdateTxn(key, v)).ok());
        }
        if (t % 5 == 4) {
          const Answer expected = Expected(dbs[0], Def(dbs[0], op, grouped));
          for (size_t i = 0; i < 3; ++i) {
            EXPECT_EQ(dbs[i].QueryAll(strategies[i].get()), expected)
                << strategies[i]->name() << " after txn " << t;
          }
        }
      }
    }
  }
}

TEST(ComputeAggregateFromBase, UsesRangeScanAndPredicate) {
  ViewTestDb db;
  AggregateGroups out;
  ASSERT_TRUE(ComputeAggregateFromBase(db.AggDef(AggregateOp::kCount),
                                       &db.tracker_, &out)
                  .ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.at(0).Current()->AsInt64(), ViewTestDb::kFCut);
  // Only the predicate's key range was scanned, each tuple at C1.
  EXPECT_EQ(db.tracker_.counters().tuple_cpu_ops,
            static_cast<uint64_t>(ViewTestDb::kFCut));
  // One pass fills every group.
  ASSERT_TRUE(ComputeAggregateFromBase(Def(db, AggregateOp::kCount, true),
                                       nullptr, &out)
                  .ok());
  ASSERT_EQ(out.size(), static_cast<size_t>(ViewTestDb::kR2N));
  for (const auto& [group, state] : out) EXPECT_EQ(state.count(), 3);
}

/// A fixed script's charges per strategy, recorded before the grouped and
/// ungrouped aggregate families were merged: the merge moved none.
TEST(AggregateCharges, ArePinnedPerStrategy) {
  auto show = [](const storage::CostCounters& c) {
    return "reads=" + std::to_string(c.disk_reads) +
           " writes=" + std::to_string(c.disk_writes) +
           " screens=" + std::to_string(c.screen_tests) +
           " cpu=" + std::to_string(c.tuple_cpu_ops) +
           " ad=" + std::to_string(c.ad_set_ops);
  };
  struct Pin {
    Kind kind;
    AggregateOp op;
    const char* total;
    const char* update_apply;
    const char* refresh;
    const char* query;
  };
  const char* kNone = "reads=0 writes=0 screens=0 cpu=0 ad=0";
  const Pin pins[] = {
      {Kind::kImmediate, AggregateOp::kSum,
       "reads=6 writes=2 screens=4 cpu=0 ad=0",
       "reads=4 writes=2 screens=0 cpu=0 ad=0", kNone,
       "reads=2 writes=0 screens=0 cpu=0 ad=0"},
      {Kind::kDeferred, AggregateOp::kSum,
       "reads=6 writes=2 screens=4 cpu=0 ad=0",
       "reads=4 writes=0 screens=0 cpu=0 ad=0", kNone,
       "reads=2 writes=2 screens=0 cpu=0 ad=0"},
      {Kind::kRecompute, AggregateOp::kSum,
       "reads=10 writes=0 screens=0 cpu=120 ad=0",
       "reads=3 writes=0 screens=0 cpu=0 ad=0", kNone,
       "reads=7 writes=0 screens=0 cpu=120 ad=0"},
      {Kind::kImmediate, AggregateOp::kMin,
       "reads=12 writes=2 screens=4 cpu=60 ad=0",
       "reads=3 writes=1 screens=0 cpu=0 ad=0",
       "reads=7 writes=1 screens=0 cpu=60 ad=0",
       "reads=2 writes=0 screens=0 cpu=0 ad=0"},
      {Kind::kDeferred, AggregateOp::kMin,
       "reads=12 writes=2 screens=4 cpu=60 ad=0",
       "reads=3 writes=0 screens=0 cpu=0 ad=0", kNone,
       "reads=9 writes=2 screens=0 cpu=60 ad=0"},
      {Kind::kRecompute, AggregateOp::kMin,
       "reads=10 writes=0 screens=0 cpu=120 ad=0",
       "reads=3 writes=0 screens=0 cpu=0 ad=0", kNone,
       "reads=7 writes=0 screens=0 cpu=120 ad=0"},
  };
  for (const Pin& pin : pins) {
    ViewTestDb db;
    const std::unique_ptr<ViewStrategy> s =
        Make(pin.kind, db, db.AggDef(pin.op));
    SCOPED_TRACE(std::string(s->name()) + " " + AggregateOpName(pin.op));
    ASSERT_TRUE(db.pool_.FlushAndEvictAll().ok());
    db.tracker_.Reset();
    // Key 0 holds the minimum and key 150 lies outside the view.
    ASSERT_TRUE(s->OnTransaction(db.UpdateTxn(0, 999.0)).ok());
    ASSERT_TRUE(s->OnTransaction(db.UpdateTxn(150, 7.0)).ok());
    EXPECT_EQ(db.QueryAll(s.get()), Expected(db, db.AggDef(pin.op)));
    ASSERT_TRUE(s->OnTransaction(db.UpdateTxn(30, -1.0)).ok());
    EXPECT_EQ(db.QueryAll(s.get()), Expected(db, db.AggDef(pin.op)));
    const storage::AttributedCounters& cells = db.tracker_.attributed();
    EXPECT_EQ(show(db.tracker_.counters()), pin.total);
    EXPECT_EQ(show(cells.PhaseTotal(storage::Phase::kUpdateApply)),
              pin.update_apply);
    EXPECT_EQ(show(cells.PhaseTotal(storage::Phase::kRefresh)), pin.refresh);
    EXPECT_EQ(show(cells.PhaseTotal(storage::Phase::kQuery)), pin.query);
  }
}

// --- GROUP BY: both shapes through one family -----------------------------------

TEST(GroupAggregate, ValidateRejectsBadDefs) {
  ViewTestDb db;
  AggregateDef def = Def(db, AggregateOp::kSum, true);
  EXPECT_TRUE(def.Validate().ok());
  def.group_field = 2;  // double column: not groupable
  EXPECT_EQ(def.Validate().code(), StatusCode::kInvalidArgument);
  def.group_field = 3;  // out of range
  EXPECT_EQ(def.Validate().code(), StatusCode::kInvalidArgument);
  def = Def(db, AggregateOp::kSum, true);
  def.base = nullptr;
  EXPECT_EQ(def.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(GroupAggregate, InitializeMatchesOracle) {
  for (const bool grouped : kShapes) {
    for (const Kind kind : kKinds) {
      ViewTestDb db;
      const AggregateDef def = Def(db, AggregateOp::kSum, grouped);
      const std::unique_ptr<ViewStrategy> s = Make(kind, db, def);
      const Answer answer = db.QueryAll(s.get());
      EXPECT_EQ(answer.size(), grouped ? 20u : 1u) << s->name();
      EXPECT_EQ(answer, Expected(db, def)) << s->name();
    }
  }
}

TEST(GroupAggregate, UpdatesMoveTheRightGroup) {
  for (const bool grouped : kShapes) {
    for (const Kind kind : kKinds) {
      ViewTestDb db;
      const AggregateDef def = Def(db, AggregateOp::kSum, grouped);
      const std::unique_ptr<ViewStrategy> s = Make(kind, db, def);
      const Answer before = db.QueryAll(s.get());
      // Key 5 is in group 5 (5 % 20): raise its v by 95.
      ASSERT_TRUE(s->OnTransaction(db.UpdateTxn(5, 100.0)).ok());
      const Answer after = db.QueryAll(s.get());
      EXPECT_EQ(after, Expected(db, def)) << s->name();
      std::vector<int64_t> moved;
      for (const auto& [row, count] : after) {
        if (!before.contains(row)) moved.push_back(row.at(0).AsInt64());
      }
      EXPECT_EQ(moved, std::vector<int64_t>{grouped ? 5 : 0}) << s->name();
    }
  }
}

TEST(GroupAggregate, EmptyGroupIsNotFound) {
  for (const Kind kind : kKinds) {
    ViewTestDb db;
    const AggregateDef def = Def(db, AggregateOp::kSum, true);
    const std::unique_ptr<ViewStrategy> s = Make(kind, db, def);
    EXPECT_TRUE(db.QueryAll(s.get(), 999, 999).empty()) << s->name();
    // Deleting group 5's members {5, 25, 45} drops the group.
    db::Transaction txn;
    for (const int64_t key : {5, 25, 45}) {
      txn.Delete(db.base_, db.BaseRow(key, db.v_oracle_[key]));
      db.v_oracle_.erase(key);
    }
    ASSERT_TRUE(s->OnTransaction(txn).ok());
    EXPECT_TRUE(db.QueryAll(s.get(), 5, 5).empty()) << s->name();
    EXPECT_EQ(db.QueryAll(s.get()), Expected(db, def)) << s->name();
  }
  // The ungrouped view over an empty set: count and sum read 0, while avg,
  // min and max have no value.
  for (const Kind kind : kKinds) {
    for (const AggregateOp op : kOps) {
      ViewTestDb db;
      AggregateDef def = Def(db, op, false);
      def.predicate = db::Predicate::Compare(0, db::CompareOp::kLt,
                                             db::Value(int64_t{-1000}));
      const std::unique_ptr<ViewStrategy> s = Make(kind, db, def);
      Answer expected;
      if (op == AggregateOp::kCount) {
        expected[db::Tuple({db::Value(int64_t{0}), db::Value(int64_t{0})})] =
            1;
      } else if (op == AggregateOp::kSum) {
        expected[Row(0, 0.0)] = 1;
      }
      EXPECT_EQ(db.QueryAll(s.get()), expected)
          << s->name() << " " << AggregateOpName(op);
    }
  }
}

TEST(GroupAggregate, MinRecomputesOnlyTheAffectedGroup) {
  ViewTestDb db;
  ImmediateAggregateStrategy strategy(Def(db, AggregateOp::kMin, true),
                                      &db.tracker_);
  ASSERT_TRUE(strategy.InitializeFromBase().ok());
  Answer others = db.QueryAll(&strategy);
  // Group 5 holds keys {5, 25, 45} with v = {5, 25, 45}; min = 5.
  ASSERT_EQ(others.erase(Row(5, 5.0)), 1u);
  // Raising a non-extremum keeps the group's state exact.
  ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(45, 450.0)).ok());
  EXPECT_EQ(strategy.recompute_count(), 0u);
  // Raising key 5's v removes the extremum: the one rebuild pass finds
  // group 5's next minimum, and every other group's answer stays put.
  ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(5, 500.0)).ok());
  EXPECT_EQ(strategy.recompute_count(), 1u);
  Answer after = db.QueryAll(&strategy);
  ASSERT_EQ(after.erase(Row(5, 25.0)), 1u);
  EXPECT_EQ(after, others);
}

TEST(GroupAggregate, AgreesWithRecomputeUnderChurn) {
  ViewTestDb db_imm;
  ViewTestDb db_rec;
  const std::unique_ptr<ViewStrategy> imm =
      Make(Kind::kImmediate, db_imm, Def(db_imm, AggregateOp::kSum, true));
  const std::unique_ptr<ViewStrategy> rec =
      Make(Kind::kRecompute, db_rec, Def(db_rec, AggregateOp::kSum, true));
  Random rng(88);
  for (int t = 0; t < 50; ++t) {
    const int64_t key = rng.UniformInt(0, ViewTestDb::kN - 1);
    const double v = static_cast<double>(rng.UniformInt(0, 1000));
    ASSERT_TRUE(imm->OnTransaction(db_imm.UpdateTxn(key, v)).ok());
    ASSERT_TRUE(rec->OnTransaction(db_rec.UpdateTxn(key, v)).ok());
    if (t % 10 == 9) {
      const Answer a = db_imm.QueryAll(imm.get());
      EXPECT_EQ(a.size(), 20u) << "txn " << t;
      EXPECT_EQ(a, db_rec.QueryAll(rec.get())) << "txn " << t;
    }
  }
}

TEST(GroupAggregate, DeferredMatchesImmediateAcrossChurn) {
  ViewTestDb db_imm;
  ViewTestDb db_def;
  ImmediateAggregateStrategy imm(Def(db_imm, AggregateOp::kSum, true),
                                 &db_imm.tracker_);
  DeferredAggregateStrategy def(Def(db_def, AggregateOp::kSum, true),
                                db_def.AdOptions(), &db_def.tracker_);
  ASSERT_TRUE(imm.InitializeFromBase().ok());
  ASSERT_TRUE(def.InitializeFromBase().ok());
  Random rng(91);
  for (int t = 0; t < 40; ++t) {
    const int64_t key = rng.UniformInt(0, ViewTestDb::kN - 1);
    const double v = static_cast<double>(rng.UniformInt(0, 1000));
    ASSERT_TRUE(imm.OnTransaction(db_imm.UpdateTxn(key, v)).ok());
    ASSERT_TRUE(def.OnTransaction(db_def.UpdateTxn(key, v)).ok());
  }
  EXPECT_GT(def.pending_tuples(), 0u);
  // One batched refresh at query time drains the differential ...
  const Answer answer = db_def.QueryAll(&def);
  EXPECT_EQ(def.pending_tuples(), 0u);
  EXPECT_EQ(answer.size(), 20u);
  EXPECT_EQ(answer, db_imm.QueryAll(&imm));
  // ... so the next query only reads the state page.
  const storage::CostCounters before = db_def.tracker_.counters();
  EXPECT_EQ(db_def.QueryAll(&def), answer);
  EXPECT_EQ(db_def.tracker_.counters().disk_reads - before.disk_reads, 1u);
  EXPECT_EQ(db_def.tracker_.counters().disk_writes - before.disk_writes, 0u);
}

TEST(GroupAggregate, DeferredMinHandlesExtremumLossAtFold) {
  for (const bool grouped : kShapes) {
    SCOPED_TRACE(grouped ? "grouped" : "ungrouped");
    ViewTestDb db;
    const AggregateDef def = Def(db, AggregateOp::kMin, grouped);
    DeferredAggregateStrategy strategy(def, db.AdOptions(), &db.tracker_);
    ASSERT_TRUE(strategy.InitializeFromBase().ok());
    // Raise the minimum (key 0; group 5's is key 5, v = 5): the fold must
    // rebuild and find the next one (key 1; group 5's key 25, v = 25).
    const int64_t key = grouped ? 5 : 0;
    ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(key, 999.0)).ok());
    const uint64_t cpu_before = db.tracker_.counters().tuple_cpu_ops;
    EXPECT_EQ(db.QueryAll(&strategy, key, key),
              (Answer{{Row(key, grouped ? 25.0 : 1.0), 1}}));
    // One rebuild pass over the view's key range, whatever the groups.
    EXPECT_EQ(db.tracker_.counters().tuple_cpu_ops - cpu_before,
              static_cast<uint64_t>(ViewTestDb::kFCut));
    EXPECT_EQ(db.QueryAll(&strategy), Expected(db, def));
  }
}

TEST(GroupAggregate, CountAndAvgOps) {
  for (const bool grouped : kShapes) {
    SCOPED_TRACE(grouped ? "grouped" : "ungrouped");
    ViewTestDb db;
    const AggregateDef count_def = Def(db, AggregateOp::kCount, grouped);
    ImmediateAggregateStrategy count(count_def, &db.tracker_);
    ASSERT_TRUE(count.InitializeFromBase().ok());
    // Group 0 holds keys 0, 20, 40; the ungrouped view all 60 keys < 60.
    EXPECT_EQ(db.QueryAll(&count, 0, 0),
              (Answer{{db::Tuple({db::Value(int64_t{0}),
                                  db::Value(int64_t{grouped ? 3 : 60})}),
                       1}}));
    EXPECT_EQ(db.QueryAll(&count), Expected(db, count_def));

    ViewTestDb db2;
    const AggregateDef avg_def = Def(db2, AggregateOp::kAvg, grouped);
    ImmediateAggregateStrategy avg(avg_def, &db2.tracker_);
    ASSERT_TRUE(avg.InitializeFromBase().ok());
    EXPECT_EQ(db2.QueryAll(&avg, 0, 0),
              (Answer{{Row(0, grouped ? 20.0 : 29.5), 1}}));
    EXPECT_EQ(db2.QueryAll(&avg), Expected(db2, avg_def));
  }
}

TEST(GroupAggregate, FieldsReadIncludesTheGroupColumn) {
  ViewTestDb db;
  EXPECT_EQ(FieldsRead(Def(db, AggregateOp::kSum, false)),
            (std::set<size_t>{0, 2}));
  EXPECT_EQ(FieldsRead(Def(db, AggregateOp::kSum, true)),
            (std::set<size_t>{0, 1, 2}));
  // An update that only moves key 5 from group 5 to group 7 is readily
  // ignorable for the ungrouped view, but not for the grouped one.
  db::Transaction txn;
  txn.Update(db.base_, db.BaseRow(5, 5.0),
             db::Tuple({db::Value(int64_t{5}), db::Value(int64_t{7}),
                        db::Value(5.0)}));
  for (const bool grouped : kShapes) {
    const AggregateDef def = Def(db, AggregateOp::kSum, grouped);
    UpdateScreen screen(def.predicate, 0, &db.tracker_, ScreeningMode::kRiu,
                        FieldsRead(def));
    EXPECT_EQ(screen.TransactionIsIgnorable(txn.ChangesFor(db.base_)),
              !grouped);
  }
}

// --- The state page ------------------------------------------------------------

TEST(MaterializedAggregate, OutgrowingThePageIsResourceExhausted) {
  {
    // Grouped by k1, the view has 60 groups: more than a 512-byte page
    // holds, so initialization fails.
    ViewTestDb db;
    AggregateDef def = Def(db, AggregateOp::kSum, true);
    def.group_field = 0;
    ImmediateAggregateStrategy strategy(def, &db.tracker_);
    EXPECT_EQ(strategy.InitializeFromBase().code(),
              StatusCode::kResourceExhausted);
  }
  // A row inside the view's key range that opens group 100 + i.
  auto new_group_row = [](int64_t i) {
    return db::Tuple({db::Value(-1 - i), db::Value(100 + i), db::Value(1.0)});
  };
  {
    // Immediate: each insert opens a new group until one no longer fits.
    // That transaction is refused before it takes effect: the base and the
    // stored answer stay as they were, and later transactions within the
    // existing groups go through.
    ViewTestDb db;
    ImmediateAggregateStrategy strategy(Def(db, AggregateOp::kSum, true),
                                        &db.tracker_);
    ASSERT_TRUE(strategy.InitializeFromBase().ok());
    Status status;
    Answer stored;
    size_t base_rows = 0;
    for (int64_t i = 0; status.ok() && i < 64; ++i) {
      stored = db.QueryAll(&strategy);
      base_rows = db.base_->tuple_count();
      db::Transaction txn;
      txn.Insert(db.base_, new_group_row(i));
      status = strategy.OnTransaction(txn);
    }
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
    EXPECT_GT(stored.size(), 20u);
    EXPECT_EQ(db.base_->tuple_count(), base_rows);
    EXPECT_EQ(db.QueryAll(&strategy), stored);
    // Group 5 holds keys {5, 25, 45}: its sum goes from 75 to 170.
    ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(5, 100.0)).ok());
    EXPECT_EQ(db.QueryAll(&strategy, 5, 5), (Answer{{Row(5, 170.0), 1}}));
  }
  // Deferred: the query whose fold would overflow the page fails before it
  // folds, so the whole differential stays pending, including a change to
  // an existing group. Once the new rows are deleted again, the next query
  // folds the rest and answers exactly.
  ViewTestDb db;
  const AggregateDef def = Def(db, AggregateOp::kSum, true);
  DeferredAggregateStrategy strategy(def, db.AdOptions(), &db.tracker_);
  ASSERT_TRUE(strategy.InitializeFromBase().ok());
  ASSERT_TRUE(strategy.OnTransaction(db.UpdateTxn(5, 100.0)).ok());
  db::Transaction grow;
  db::Transaction shrink;
  for (int64_t i = 0; i < 2; ++i) {  // 22 groups; the page holds 21
    grow.Insert(db.base_, new_group_row(i));
    shrink.Delete(db.base_, new_group_row(i));
  }
  ASSERT_TRUE(strategy.OnTransaction(grow).ok());
  const uint64_t pending = strategy.pending_tuples();
  EXPECT_EQ(strategy
                .Query(0, 1 << 20,
                       [](const db::Tuple&, int64_t) { return true; })
                .code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(strategy.pending_tuples(), pending);
  EXPECT_EQ(db.base_->tuple_count(), static_cast<size_t>(ViewTestDb::kN));
  ASSERT_TRUE(strategy.OnTransaction(shrink).ok());
  EXPECT_EQ(db.QueryAll(&strategy), Expected(db, def));
}

TEST(MaterializedAggregate, RejectsMalformedPages) {
  ViewTestDb db;
  const AggregateDef def = Def(db, AggregateOp::kSum, true);
  MaterializedAggregate stored(def);
  AggregateGroups groups;
  ASSERT_TRUE(ComputeAggregateFromBase(def, nullptr, &groups).ok());
  ASSERT_TRUE(stored.Write(groups).ok());
  storage::Page good(db.disk_.page_size());
  ASSERT_TRUE(db.disk_.Read(stored.page(), &good).ok());
  AggregateGroups back;

  storage::Page bad = good;  // a group-count word beyond the page
  bad.WriteAt<uint32_t>(0, 0xFFFFFFF0u);
  ASSERT_TRUE(db.disk_.Write(stored.page(), bad).ok());
  EXPECT_EQ(stored.Read(&back).code(), StatusCode::kInternal);

  bad = good;  // an op byte that is not the view's
  bad.WriteAt<uint8_t>(4, 0xEE);
  ASSERT_TRUE(db.disk_.Write(stored.page(), bad).ok());
  EXPECT_EQ(stored.Read(&back).code(), StatusCode::kInternal);

  bad = good;  // the second record repeats the first one's group
  bad.WriteAt<int64_t>(8 + 24, 0);
  ASSERT_TRUE(db.disk_.Write(stored.page(), bad).ok());
  EXPECT_EQ(stored.Read(&back).code(), StatusCode::kInternal);

  ASSERT_TRUE(db.disk_.Write(stored.page(), good).ok());
  ASSERT_TRUE(stored.Read(&back).ok());
  EXPECT_EQ(back, groups);
}

}  // namespace
}  // namespace viewmat::view
