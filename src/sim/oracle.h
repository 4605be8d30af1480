#ifndef VIEWMAT_SIM_ORACLE_H_
#define VIEWMAT_SIM_ORACLE_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "db/transaction.h"
#include "sim/strategy_driver.h"

namespace viewmat::sim {

/// The oracle core every correctness harness shares: the fault sweep, the
/// crash-equivalence oracle, the serializability oracle, and the chaos
/// oracle stage transactions, check state, and replay histories through
/// these helpers, and keep only their fault arming, recovery policy, and
/// tallies to themselves.

/// One transaction's writes as (base key, new payload), in generation
/// order.
using Victims = std::vector<std::pair<int64_t, double>>;

/// One update transaction staged against the shadow. Set() rewrites one
/// base tuple's payload, taking the old tuple from the shadow — or from
/// this transaction's own earlier write when a key is hit twice. The
/// shadow moves only on CommitTo(), once the strategy acknowledged (or
/// provably committed) the transaction.
class StagedTxn {
 public:
  StagedTxn(const ShadowOracle& shadow, db::Relation* rel)
      : shadow_(shadow), rel_(rel) {}

  void Set(int64_t key, double v);
  /// The payload this transaction sees for `key`.
  double value(int64_t key) const;

  const db::Transaction& txn() const { return txn_; }
  db::Transaction& txn() { return txn_; }

  /// Advances `shadow` by the staged writes (call only on commit).
  void CommitTo(ShadowOracle* shadow) const;

 private:
  const ShadowOracle& shadow_;
  db::Relation* rel_;
  db::Transaction txn_;
  std::map<int64_t, double> staged_;
};

/// The base multiset the shadow predicts: one tuple per key.
ViewMultiset ExpectedBase(const ShadowOracle& shadow);

/// Runs a view query over [lo, hi] and collects its counted answer.
Status QueryInto(StrategyDriver* driver, int64_t lo, int64_t hi,
                 ViewMultiset* out);

/// Restart (when crashed) + Recover(), up to `attempts` times; returns the
/// last Recover() status.
Status RecoverWithRestarts(StrategyDriver* driver, int attempts);

/// The golden triple on a converged driver: the full view answer equals
/// the shadow's ExpectedRange AND a from-scratch RecomputeFromBase, and
/// the visible base equals ExpectedBase. The error names the failed leg.
Status CheckGolden(StrategyDriver* driver, const ShadowOracle& shadow);

/// An order-independent digest of a counted tuple multiset: the sum, mod
/// 2^64, of count × SplitMix64(Tuple::Hash() ^ leg) over every (tuple,
/// count) added. Tuple::Hash covers each value's exact bits (int64 and
/// double) or bytes (string), so payloads that print alike still digest
/// apart. The sum is additive in the count and ignores order, so a query
/// answer folded in as it streams — query modification's count-1 visits or
/// a view's counted rows — digests the same as the collected multiset.
/// `leg` tags which multiset of a composite state a tuple belongs to.
class MultisetDigest {
 public:
  explicit MultisetDigest(uint64_t leg = 0) : leg_(leg) {}

  void Add(const db::Tuple& t, int64_t count) {
    sum_ += static_cast<uint64_t>(count) * SplitMix64(t.Hash() ^ leg_);
  }
  uint64_t value() const { return sum_; }

 private:
  uint64_t leg_;
  uint64_t sum_ = 0;
};

/// Runs a view query over [lo, hi] and folds its answer into `digest` as it
/// streams, without collecting it.
Status DigestQuery(StrategyDriver* driver, int64_t lo, int64_t hi,
                   MultisetDigest* digest);

/// StateDigest's leg tags.
inline constexpr uint64_t kBaseLeg = 0x42415345;  // "BASE"
inline constexpr uint64_t kViewLeg = 0x56494557;  // "VIEW"

/// Digest of the driver's observable state: the MultisetDigest(kBaseLeg)
/// of the visible base plus the MultisetDigest(kViewLeg) of the full-range
/// view answer. The tags make a tuple digest differently in each leg, so
/// the legs cannot stand in for each other: moving a tuple from one to the
/// other changes the digest. Two runs ended in the same logical state iff
/// their digests match (up to hashing).
StatusOr<uint64_t> StateDigest(StrategyDriver* driver);

/// Serial replay: builds a fresh driver from `options`, applies `txns` in
/// order (absolute payloads), converges, passes CheckGolden, and returns
/// the StateDigest. Errors if any transaction or check fails.
StatusOr<uint64_t> ReplayDigest(const StrategyDriver::Options& options,
                                const std::vector<Victims>& txns);

/// How one torture update ended.
struct TortureUpdateOutcome {
  bool committed = false;  ///< durably committed; the shadow advanced
  /// It errored after drawing a transaction id; a Recover() decided it
  /// against the durable committed high-water mark.
  bool ambiguous = false;
  bool unresolved = false;  ///< ambiguous, and no Recover() succeeded
};

/// The seeded torture update step: `l` victims, each drawing a key and
/// then a fresh payload from `rng`, committed through the driver. An
/// ambiguous failure is resolved with RecoverWithRestarts(driver,
/// attempts). The shadow advances only on a durable commit.
TortureUpdateOutcome TortureUpdate(StrategyDriver* driver,
                                   ShadowOracle* shadow, Random* rng,
                                   int64_t l, int attempts);

enum class QueryVerdict { kExact, kFailed, kStale };

/// The seeded torture query step: a random range, answered by the driver
/// and compared with the shadow. A loud failure is kFailed; a wrong OK
/// answer is kStale.
QueryVerdict TortureQuery(StrategyDriver* driver, const ShadowOracle& shadow,
                          Random* rng);

}  // namespace viewmat::sim

#endif  // VIEWMAT_SIM_ORACLE_H_
