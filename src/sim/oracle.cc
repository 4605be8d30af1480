#include "sim/oracle.h"

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "workload/workload.h"

namespace viewmat::sim {

using workload::Scenario;

void StagedTxn::Set(int64_t key, double v) {
  db::Tuple old_t = shadow_.BaseTuple(key);
  old_t.at(Scenario::kFieldV) = db::Value(value(key));
  db::Tuple new_t = old_t;
  new_t.at(Scenario::kFieldV) = db::Value(v);
  txn_.Update(rel_, old_t, new_t);
  staged_[key] = v;
}

double StagedTxn::value(int64_t key) const {
  const auto it = staged_.find(key);
  return it != staged_.end() ? it->second : shadow_.v[key];
}

void StagedTxn::CommitTo(ShadowOracle* shadow) const {
  for (const auto& [key, v] : staged_) shadow->v[key] = v;
}

ViewMultiset ExpectedBase(const ShadowOracle& shadow) {
  ViewMultiset expected;
  for (int64_t key = 0; key < shadow.n; ++key) {
    expected[shadow.BaseTuple(key)] += 1;
  }
  return expected;
}

Status QueryInto(StrategyDriver* driver, int64_t lo, int64_t hi,
                 ViewMultiset* out) {
  out->clear();
  return driver->Query(lo, hi, [out](const db::Tuple& value, int64_t count) {
    (*out)[value] += count;
    return true;
  });
}

Status RecoverWithRestarts(StrategyDriver* driver, int attempts) {
  Status recovered = Status::Internal("not attempted");
  for (int attempt = 0; attempt < attempts && !recovered.ok(); ++attempt) {
    if (driver->disk()->crashed()) driver->disk()->Restart();
    recovered = driver->Recover();
  }
  return recovered;
}

Status CheckGolden(StrategyDriver* driver, const ShadowOracle& shadow) {
  ViewMultiset answered;
  VIEWMAT_RETURN_IF_ERROR(QueryInto(driver, 0, shadow.n - 1, &answered));
  ViewMultiset recomputed;
  VIEWMAT_RETURN_IF_ERROR(RecomputeFromBase(driver->model(), driver->sp_def(),
                                            driver->join_def(), driver->base(),
                                            &recomputed));
  ViewMultiset base;
  VIEWMAT_RETURN_IF_ERROR(driver->VisibleBase(&base));
  const ViewMultiset expected =
      ExpectedRange(shadow, driver->model(), 0, shadow.n - 1);
  if (answered != expected) {
    return Status::Internal(
        "golden check, view leg: the view answer disagrees with the shadow");
  }
  if (recomputed != expected) {
    return Status::Internal(
        "golden check, recompute leg: a from-scratch recompute over the base "
        "disagrees with the shadow");
  }
  if (base != ExpectedBase(shadow)) {
    return Status::Internal(
        "golden check, base leg: the visible base disagrees with the "
        "committed state");
  }
  return Status::OK();
}

uint64_t HashMultiset(uint64_t h, const char* tag, const ViewMultiset& m) {
  const auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
  };
  for (const auto& [t, count] : m) {
    mix(tag);
    mix(t.ToString());
    mix(":");
    mix(std::to_string(count));
  }
  return h;
}

StatusOr<uint64_t> StateDigest(StrategyDriver* driver) {
  ViewMultiset base;
  VIEWMAT_RETURN_IF_ERROR(driver->VisibleBase(&base));
  ViewMultiset view;
  VIEWMAT_RETURN_IF_ERROR(
      QueryInto(driver, 0, driver->scenario()->n() - 1, &view));
  return HashMultiset(HashMultiset(kFnvOffsetBasis, "B", base), "V", view);
}

StatusOr<uint64_t> ReplayDigest(const StrategyDriver::Options& options,
                                const std::vector<Victims>& txns) {
  VIEWMAT_ASSIGN_OR_RETURN(std::unique_ptr<StrategyDriver> driver,
                           StrategyDriver::Create(options));
  ShadowOracle shadow = MakeShadow(*driver->scenario());
  for (const Victims& victims : txns) {
    StagedTxn staged(shadow, driver->base());
    for (const auto& [key, v] : victims) staged.Set(key, v);
    VIEWMAT_RETURN_IF_ERROR(driver->OnTransaction(staged.txn()));
    staged.CommitTo(&shadow);
  }
  VIEWMAT_RETURN_IF_ERROR(driver->Converge());
  VIEWMAT_RETURN_IF_ERROR(CheckGolden(driver.get(), shadow));
  return StateDigest(driver.get());
}

TortureUpdateOutcome TortureUpdate(StrategyDriver* driver,
                                   ShadowOracle* shadow, Random* rng,
                                   int64_t l, int attempts) {
  StagedTxn staged(*shadow, driver->base());
  for (int64_t j = 0; j < l; ++j) {
    const int64_t key = static_cast<int64_t>(rng->Uniform(shadow->n));
    staged.Set(key, rng->NextDouble() * 1000.0);
  }
  // An acknowledgment is definitive; an error is not — a torn write can
  // land the commit record in full while the append still reports
  // failure — so an error after a transaction id was issued is resolved
  // against the recovered log's committed high-water mark.
  TortureUpdateOutcome outcome;
  const uint64_t seq_before = driver->txn_seq();
  outcome.committed = driver->OnTransaction(staged.txn()).ok();
  if (!outcome.committed && driver->txn_seq() != seq_before) {
    const uint64_t id = driver->txn_seq();
    outcome.ambiguous = true;
    if (!RecoverWithRestarts(driver, attempts).ok()) {
      outcome.unresolved = true;
      return outcome;
    }
    outcome.committed = driver->committed_txn_high_water() >= id;
  }
  if (outcome.committed) staged.CommitTo(shadow);
  return outcome;
}

QueryVerdict TortureQuery(StrategyDriver* driver, const ShadowOracle& shadow,
                          Random* rng) {
  const int64_t lo = static_cast<int64_t>(rng->Uniform(shadow.n));
  const int64_t hi =
      lo + static_cast<int64_t>(
               rng->Uniform(std::max<int64_t>(1, shadow.n / 2)));
  ViewMultiset got;
  if (!QueryInto(driver, lo, hi, &got).ok()) return QueryVerdict::kFailed;
  return got == ExpectedRange(shadow, driver->model(), lo, hi)
             ? QueryVerdict::kExact
             : QueryVerdict::kStale;
}

}  // namespace viewmat::sim
