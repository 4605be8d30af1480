#include "sim/crash_oracle.h"

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "sim/oracle.h"

namespace viewmat::sim {

namespace {

using costmodel::Params;

/// Recovery attempts before declaring the run corrupt. The crash model
/// fires at most one scripted crash per run, so a healthy-device recovery
/// should succeed immediately; the headroom rides out a crash landing
/// inside a recovery pass itself.
constexpr int kMaxRecoverAttempts = 8;

struct RunStats {
  bool crashed = false;
  uint64_t recoveries = 0;
  uint64_t rejected_txns = 0;
  uint64_t failed_queries = 0;
  uint64_t prefix_checks = 0;
  bool divergence = false;
  bool stale_read = false;
  bool corrupt = false;
  /// Disk ops from post-setup through post-convergence (healthy run only).
  uint64_t window_ops = 0;
};

/// The committed-prefix equivalence check: visible base contents must equal
/// the shadow's committed state, and a full-range view query must be exact.
void CheckPrefix(StrategyDriver* driver, const ShadowOracle& shadow,
                 RunStats* stats) {
  ++stats->prefix_checks;
  ViewMultiset got_base;
  if (!driver->VisibleBase(&got_base).ok()) {
    stats->divergence = true;
    return;
  }
  if (got_base != ExpectedBase(shadow)) stats->divergence = true;

  ViewMultiset got;
  if (!QueryInto(driver, 0, shadow.n - 1, &got).ok()) {
    // A healthy post-recovery device must serve reads.
    stats->divergence = true;
    return;
  }
  if (got != ExpectedRange(shadow, driver->model(), 0, shadow.n - 1)) {
    stats->stale_read = true;
  }
}

/// One oracle run: the seeded workload against a fresh instance, with a
/// scripted crash at disk operation `crash_at` (0 = healthy baseline).
Status RunOne(const CrashOracleOptions& options, const Params& params,
              uint64_t crash_at, RunStats* stats) {
  StrategyDriver::Options dopt;
  dopt.kind = options.kind;
  dopt.model = options.model;
  dopt.params = params;
  dopt.seed = options.seed;
  dopt.checkpoint_every = options.checkpoint_every;
  VIEWMAT_ASSIGN_OR_RETURN(std::unique_ptr<StrategyDriver> driver,
                           StrategyDriver::Create(dopt));
  const uint64_t window_start = driver->disk()->op_count();
  if (crash_at > 0) driver->disk()->ScriptCrashAtOp(crash_at);

  // The same RNG seed for every run: healthy and crashed runs build the
  // same op stream until a crash makes their histories diverge (each run
  // stays internally consistent with its own shadow either way).
  Random rng(options.seed | 1);
  ShadowOracle shadow = MakeShadow(*driver->scenario());

  const int64_t l = static_cast<int64_t>(params.l);
  for (int op = 0; op < options.ops_per_run; ++op) {
    if (driver->disk()->crashed()) {
      // The crash fired somewhere in the previous operation; this is the
      // oracle's moment: restart, recover, and demand prefix equivalence.
      if (!RecoverWithRestarts(driver.get(), kMaxRecoverAttempts).ok()) {
        stats->corrupt = true;
        break;
      }
      CheckPrefix(driver.get(), shadow, stats);
    }
    const bool is_query =
        options.query_every > 0 &&
        (op % options.query_every) == (options.query_every - 1);
    if (is_query) {
      // A loud failure is acceptable mid-crash; a wrong answer never.
      switch (TortureQuery(driver.get(), shadow, &rng)) {
        case QueryVerdict::kExact: break;
        case QueryVerdict::kFailed: ++stats->failed_queries; break;
        case QueryVerdict::kStale: stats->stale_read = true; break;
      }
      continue;
    }
    const TortureUpdateOutcome update = TortureUpdate(
        driver.get(), &shadow, &rng, l, kMaxRecoverAttempts);
    if (update.unresolved) {
      stats->corrupt = true;
      break;
    }
    if (!update.committed) ++stats->rejected_txns;
    // The recovery that resolved an ambiguous commit doubles as a
    // prefix-equivalence checkpoint, now that the shadow is settled.
    if (update.ambiguous) CheckPrefix(driver.get(), shadow, stats);
  }

  // Convergence: the crash (if any) fires exactly once, so with restarts
  // this loop always reaches a healthy device.
  if (!stats->corrupt) {
    Status converged = Status::Internal("not attempted");
    for (int attempt = 0; attempt < kMaxRecoverAttempts && !converged.ok();
         ++attempt) {
      if (driver->disk()->crashed()) driver->disk()->Restart();
      converged = driver->Converge();
    }
    if (!converged.ok()) stats->corrupt = true;
  }
  stats->window_ops = driver->disk()->op_count() - window_start;

  // Golden triple on a guaranteed-quiet device (after the window is read).
  driver->disk()->ClearFaults();
  if (driver->disk()->crashed()) driver->disk()->Restart();
  if (!stats->corrupt && !CheckGolden(driver.get(), shadow).ok()) {
    stats->corrupt = true;
  }

  stats->crashed = driver->disk()->crashes() > 0;
  stats->recoveries = driver->recoveries();
  return Status::OK();
}

}  // namespace

std::string CrashOracleResult::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %llu crash points, %llu fired, %llu recoveries, "
                "%llu checks: %d divergences, %d stale, %d corrupt",
                static_cast<unsigned long long>(crash_points),
                static_cast<unsigned long long>(crashes_fired),
                static_cast<unsigned long long>(recoveries),
                static_cast<unsigned long long>(prefix_checks), divergences,
                stale_reads, corrupt_runs);
  return buf;
}

StatusOr<CrashOracleResult> RunCrashOracle(const CrashOracleOptions& options) {
  if (options.ops_per_run <= 0) {
    return Status::InvalidArgument("ops_per_run must be > 0");
  }
  const Params params = TortureParams(options.params);
  VIEWMAT_RETURN_IF_ERROR(params.Validate());

  // Healthy baseline: measures the crash window and must be flawless —
  // a baseline failure means the harness, not the crash protocol, is wrong.
  RunStats healthy;
  VIEWMAT_RETURN_IF_ERROR(RunOne(options, params, /*crash_at=*/0, &healthy));
  if (healthy.divergence || healthy.stale_read || healthy.corrupt ||
      healthy.rejected_txns != 0 || healthy.failed_queries != 0) {
    return Status::Internal(
        std::string("crash oracle healthy baseline failed for ") +
        StrategyKindName(options.kind));
  }

  // Exhaustive fan-out: one run per disk operation in the healthy window.
  // Each run is fully self-contained, so tasks execute in any order on any
  // worker; results merge in index order for bit-identical output at any
  // job count.
  struct RunResult {
    Status status = Status::OK();
    RunStats stats;
  };
  const size_t total = static_cast<size_t>(healthy.window_ops);
  std::vector<RunResult> runs =
      common::ParallelMap(options.jobs, total, [&](size_t idx) {
        RunResult r;
        r.status = RunOne(options, params, /*crash_at=*/idx + 1, &r.stats);
        return r;
      });

  CrashOracleResult result;
  result.crash_points = healthy.window_ops;
  for (const RunResult& r : runs) {
    VIEWMAT_RETURN_IF_ERROR(r.status);
    if (r.stats.crashed) ++result.crashes_fired;
    result.recoveries += r.stats.recoveries;
    result.rejected_txns += r.stats.rejected_txns;
    result.failed_queries += r.stats.failed_queries;
    result.prefix_checks += r.stats.prefix_checks;
    if (r.stats.divergence) ++result.divergences;
    if (r.stats.stale_read) ++result.stale_reads;
    if (r.stats.corrupt) ++result.corrupt_runs;
  }
  return result;
}

}  // namespace viewmat::sim
