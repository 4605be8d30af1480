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

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;

/// Continues the FNV-1a hash `h` over every (tuple, count) of `m`, each
/// rendered as tag + tuple + ":" + count.
uint64_t HashMultiset(uint64_t h, const char* tag, const ViewMultiset& m);

/// FNV-1a digest of the driver's observable state: the visible base
/// multiset plus the full-range view answer. Two runs ended in the same
/// logical state iff their digests match (up to hashing).
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
