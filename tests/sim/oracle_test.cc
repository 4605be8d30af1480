#include "sim/oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "costmodel/params.h"
#include "net/session_server.h"
#include "workload/workload.h"

namespace viewmat::sim {
namespace {

using workload::Scenario;

ShadowOracle SmallShadow() {
  ShadowOracle shadow;
  shadow.n = 4;
  shadow.f_cut = 2;
  shadow.k2 = {0, 0, 0, 0};
  shadow.v = {1.0, 2.0, 3.0, 4.0};
  shadow.w_by_r2_key = {5.0};
  return shadow;
}

db::Tuple WithPayload(const ShadowOracle& shadow, int64_t key, double v) {
  db::Tuple t = shadow.BaseTuple(key);
  t.at(Scenario::kFieldV) = db::Value(v);
  return t;
}

TEST(StagedTxn, RepeatedKeySeesItsOwnWrite) {
  const ShadowOracle shadow = SmallShadow();
  StagedTxn staged(shadow, /*rel=*/nullptr);
  staged.Set(1, 10.0);
  EXPECT_DOUBLE_EQ(staged.value(1), 10.0);
  staged.Set(1, staged.value(1) + 5.0);
  EXPECT_DOUBLE_EQ(staged.value(1), 15.0);
  EXPECT_DOUBLE_EQ(staged.value(2), 3.0);  // unstaged: the shadow's value

  // The second write's old tuple is the first write's new one, so the net
  // change is one delete of the shadow's tuple and one insert of the last.
  const db::NetChange& net = staged.txn().ChangesFor(nullptr);
  ASSERT_EQ(net.deletes().size(), 1u);
  ASSERT_EQ(net.inserts().size(), 1u);
  EXPECT_EQ(net.deletes()[0], shadow.BaseTuple(1));
  EXPECT_EQ(net.inserts()[0], WithPayload(shadow, 1, 15.0));
}

TEST(StagedTxn, CommitToMovesOnlyTheStagedKeys) {
  ShadowOracle shadow = SmallShadow();
  StagedTxn staged(shadow, /*rel=*/nullptr);
  staged.Set(1, 10.0);
  staged.Set(3, 30.0);
  staged.Set(1, 11.0);
  EXPECT_EQ(shadow.v, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));

  ShadowOracle committed = shadow;
  staged.CommitTo(&committed);
  EXPECT_EQ(committed.v, (std::vector<double>{1.0, 11.0, 3.0, 30.0}));
}

StrategyDriver::Options DriverOptions() {
  StrategyDriver::Options options;
  options.kind = StrategyKind::kImmediate;
  options.model = 1;
  options.params = TortureParams(costmodel::Params{});
  options.seed = 5;
  return options;
}

/// An immediate driver that committed a few seeded updates and converged,
/// with the shadow that tracks it.
struct Converged {
  std::unique_ptr<StrategyDriver> driver;
  ShadowOracle shadow;
};

Converged MakeConverged() {
  Converged c;
  auto driver = StrategyDriver::Create(DriverOptions());
  EXPECT_TRUE(driver.ok()) << driver.status().message();
  c.driver = std::move(*driver);
  c.shadow = MakeShadow(*c.driver->scenario());
  Random rng(17);
  for (int i = 0; i < 4; ++i) {
    const TortureUpdateOutcome update =
        TortureUpdate(c.driver.get(), &c.shadow, &rng, /*l=*/3,
                      /*attempts=*/1);
    EXPECT_TRUE(update.committed);
    EXPECT_FALSE(update.ambiguous);
    EXPECT_EQ(TortureQuery(c.driver.get(), c.shadow, &rng),
              QueryVerdict::kExact);
  }
  EXPECT_TRUE(c.driver->Converge().ok());
  return c;
}

/// Rewrites one base tuple's payload straight into the relation, behind
/// the strategy's back.
void WriteBaseBehindTheStrategy(Converged* c, int64_t key) {
  const double v = c->shadow.v[key];
  db::Transaction txn;
  txn.Update(c->driver->base(), c->shadow.BaseTuple(key),
             WithPayload(c->shadow, key, v + 1.0));
  ASSERT_TRUE(txn.ApplyToBase().ok());
}

void ExpectLegFails(const Status& golden, const std::string& leg) {
  ASSERT_FALSE(golden.ok());
  EXPECT_NE(golden.message().find(leg + " leg"), std::string::npos)
      << golden.message();
}

TEST(CheckGolden, PassesOnAConvergedDriver) {
  Converged c = MakeConverged();
  EXPECT_TRUE(CheckGolden(c.driver.get(), c.shadow).ok());
}

TEST(CheckGolden, AShiftedShadowFailsTheViewLeg) {
  Converged c = MakeConverged();
  ASSERT_LT(0, c.shadow.f_cut);
  c.shadow.v[0] += 1.0;
  ExpectLegFails(CheckGolden(c.driver.get(), c.shadow), "view");
}

TEST(CheckGolden, ABaseWriteInsideTheViewFailsTheRecomputeLeg) {
  Converged c = MakeConverged();
  WriteBaseBehindTheStrategy(&c, /*key=*/0);
  ExpectLegFails(CheckGolden(c.driver.get(), c.shadow), "recompute");
}

TEST(CheckGolden, ABaseWriteOutsideTheViewFailsTheBaseLeg) {
  Converged c = MakeConverged();
  ASSERT_LT(c.shadow.f_cut, c.shadow.n);
  WriteBaseBehindTheStrategy(&c, /*key=*/c.shadow.n - 1);
  ExpectLegFails(CheckGolden(c.driver.get(), c.shadow), "base");
}

TEST(ReplayDigest, MatchesTheLiveDriverItReplays) {
  auto live = StrategyDriver::Create(DriverOptions());
  ASSERT_TRUE(live.ok());
  ShadowOracle shadow = MakeShadow(*(*live)->scenario());
  const std::vector<Victims> txns = {{{0, 1.5}, {5, 2.5}, {0, 3.5}},
                                     {{7, 4.5}}};
  for (const Victims& victims : txns) {
    StagedTxn staged(shadow, (*live)->base());
    for (const auto& [key, v] : victims) staged.Set(key, v);
    ASSERT_TRUE((*live)->OnTransaction(staged.txn()).ok());
    staged.CommitTo(&shadow);
  }
  ASSERT_TRUE((*live)->Converge().ok());
  const StatusOr<uint64_t> want = StateDigest(live->get());
  ASSERT_TRUE(want.ok());

  const StatusOr<uint64_t> replayed = ReplayDigest(DriverOptions(), txns);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  EXPECT_EQ(*replayed, *want);
  const StatusOr<uint64_t> fresh = ReplayDigest(DriverOptions(), {});
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(*fresh, *want);
}

db::Tuple Row(int64_t key, double v) {
  return db::Tuple({db::Value(key), db::Value(v)});
}

TEST(MultisetDigest, IgnoresTheOrderOfItsInputs) {
  MultisetDigest forward, backward;
  for (int64_t key = 0; key < 5; ++key) forward.Add(Row(key, key * 0.5), 2);
  for (int64_t key = 4; key >= 0; --key) backward.Add(Row(key, key * 0.5), 2);
  EXPECT_EQ(forward.value(), backward.value());
}

TEST(MultisetDigest, IsAdditiveInTheCount) {
  MultisetDigest twice, once;
  twice.Add(Row(1, 2.0), 1);
  twice.Add(Row(1, 2.0), 1);
  once.Add(Row(1, 2.0), 2);
  EXPECT_EQ(twice.value(), once.value());
  MultisetDigest single;
  single.Add(Row(1, 2.0), 1);
  EXPECT_NE(single.value(), once.value());
}

TEST(MultisetDigest, TellsApartPayloadsThatPrintAlike) {
  // Both payloads print as 1.23457e+06 under %g.
  EXPECT_NE(net::DigestMultiset({{Row(7, 1234567.0), 1}}),
            net::DigestMultiset({{Row(7, 1234568.0), 1}}));
  const StatusOr<uint64_t> low =
      ReplayDigest(DriverOptions(), {{{0, 1234567.0}}});
  const StatusOr<uint64_t> high =
      ReplayDigest(DriverOptions(), {{{0, 1234568.0}}});
  ASSERT_TRUE(low.ok() && high.ok());
  EXPECT_NE(*low, *high);
}

TEST(MultisetDigest, StreamedQueryEqualsTheDigestOfTheCollectedAnswer) {
  int combos = 0;
  for (const StrategyKind kind : kAllStrategyKinds) {
    for (const int model : {1, 2}) {
      if (!SupportsModel(kind, model)) continue;
      ++combos;
      SCOPED_TRACE(std::string(StrategyKindName(kind)) + " model " +
                   std::to_string(model));
      StrategyDriver::Options options = DriverOptions();
      options.kind = kind;
      options.model = model;
      auto driver = StrategyDriver::Create(options);
      ASSERT_TRUE(driver.ok()) << driver.status().message();
      ShadowOracle shadow = MakeShadow(*(*driver)->scenario());
      Random rng(23);
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(TortureUpdate(driver->get(), &shadow, &rng, /*l=*/4,
                                  /*attempts=*/1)
                        .committed);
        const int64_t lo = static_cast<int64_t>(rng.Uniform(shadow.n));
        for (const int64_t hi : {lo, lo + shadow.n / 3, shadow.n - 1}) {
          MultisetDigest streamed;
          ASSERT_TRUE(DigestQuery(driver->get(), lo, hi, &streamed).ok());
          ViewMultiset collected;
          ASSERT_TRUE(QueryInto(driver->get(), lo, hi, &collected).ok());
          EXPECT_EQ(streamed.value(), net::DigestMultiset(collected));
          EXPECT_EQ(collected, ExpectedRange(shadow, model, lo, hi));
        }
      }
    }
  }
  EXPECT_EQ(combos, 9);
}

TEST(StateDigest, IsTheSumOfItsTaggedLegs) {
  Converged c = MakeConverged();
  ViewMultiset base, view;
  ASSERT_TRUE(c.driver->VisibleBase(&base).ok());
  ASSERT_TRUE(QueryInto(c.driver.get(), 0, c.shadow.n - 1, &view).ok());
  MultisetDigest base_leg(kBaseLeg), view_leg(kViewLeg);
  for (const auto& [t, count] : base) base_leg.Add(t, count);
  for (const auto& [t, count] : view) view_leg.Add(t, count);
  const StatusOr<uint64_t> digest = StateDigest(c.driver.get());
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(*digest, base_leg.value() + view_leg.value());

  // Moving a tuple from the base leg to the view leg changes the sum.
  ASSERT_FALSE(base.empty());
  const db::Tuple moved = base.begin()->first;
  MultisetDigest base_after(kBaseLeg), view_after(kViewLeg);
  for (const auto& [t, count] : base) {
    base_after.Add(t, t == moved ? count - 1 : count);
  }
  for (const auto& [t, count] : view) view_after.Add(t, count);
  view_after.Add(moved, 1);
  EXPECT_NE(base_after.value() + view_after.value(), *digest);
}

}  // namespace
}  // namespace viewmat::sim
