#include "sim/fault_sweep.h"

#include <cstdio>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "sim/oracle.h"
#include "storage/faulty_disk.h"

namespace viewmat::sim {

namespace {

using costmodel::Params;
using storage::CrashPoint;

/// The protocol crash points an AD-journaled run may script, in
/// announcement order.
constexpr CrashPoint kScriptablePoints[] = {
    CrashPoint::kBeforeWalAppend, CrashPoint::kAfterWalAppend,
    CrashPoint::kBeforeViewPatch, CrashPoint::kMidViewPatch,
    CrashPoint::kAfterViewPatch,  CrashPoint::kBeforeFold,
    CrashPoint::kMidFold,         CrashPoint::kBeforeAdReset,
    CrashPoint::kMidAdReset,
};

/// Recover() attempts to resolve one ambiguous commit before declaring the
/// run corrupt; the fault budget bounds how many of them can fail.
constexpr int kMaxResolveAttempts = 1000;

uint64_t RunSeed(uint64_t base, size_t rate_idx, int run_idx) {
  uint64_t x = base ^ (0x9e3779b97f4a7c15ull * (rate_idx + 1));
  x ^= 0xbf58476d1ce4e5b9ull * static_cast<uint64_t>(run_idx + 1);
  x ^= x >> 31;
  return x | 1;
}

struct RunOutcome {
  bool silently_stale = false;
  bool corrupt = false;
  uint64_t rejected_txns = 0;
  uint64_t failed_queries = 0;
};

Status RunOne(const FaultSweepOptions& options, const Params& params,
              double fault_rate, uint64_t run_seed, FaultSweepCell* cell,
              RunOutcome* outcome) {
  Random rng(run_seed);

  StrategyDriver::Options dopt;
  dopt.kind = options.strategy;
  dopt.model = options.model;
  dopt.params = params;
  dopt.seed = run_seed;
  VIEWMAT_ASSIGN_OR_RETURN(std::unique_ptr<StrategyDriver> driver,
                           StrategyDriver::Create(dopt));
  storage::FaultyDisk& disk = *driver->disk();
  ShadowOracle shadow = MakeShadow(*driver->scenario());

  // Arm the failure model (the driver loaded everything healthy).
  disk.set_read_fault_rate(fault_rate);
  disk.set_write_fault_rate(fault_rate);
  disk.set_torn_writes(true);
  disk.set_max_faults(options.fault_budget);
  if (options.scripted_crashes) {
    // Journaled strategies alternate between protocol-point crashes and
    // raw disk-op crashes; the RM-committing ones only announce disk ops.
    if (driver->journaled() && rng.Uniform(2) == 0) {
      const size_t which = static_cast<size_t>(rng.Uniform(
          sizeof(kScriptablePoints) / sizeof(kScriptablePoints[0])));
      disk.ScriptCrash(kScriptablePoints[which],
                       /*occurrence=*/1 + rng.Uniform(2));
    } else {
      disk.ScriptCrashAtOp(1 + rng.Uniform(256));
    }
  }

  const int64_t l = static_cast<int64_t>(params.l);
  for (int op = 0; op < options.ops_per_run; ++op) {
    const bool is_query =
        options.query_every > 0 && (op % options.query_every) ==
                                       (options.query_every - 1);
    if (disk.crashed()) disk.Restart();
    if (is_query) {
      // A loud failure is acceptable under faults; a wrong answer never.
      switch (TortureQuery(driver.get(), shadow, &rng)) {
        case QueryVerdict::kExact: break;
        case QueryVerdict::kFailed: ++outcome->failed_queries; break;
        case QueryVerdict::kStale: outcome->silently_stale = true; break;
      }
      continue;
    }
    // One update transaction of l victims. Recovery must eventually
    // resolve an ambiguous commit (the fault budget guarantees a healthy
    // device), so failing to is corruption.
    const TortureUpdateOutcome update = TortureUpdate(
        driver.get(), &shadow, &rng, l, kMaxResolveAttempts);
    if (update.unresolved) {
      outcome->corrupt = true;
      break;
    }
    if (update.committed) continue;
    ++outcome->rejected_txns;
    if (!update.ambiguous) {
      // Rejected before a transaction id was even issued: no commit
      // record can exist. Best-effort recovery keeps the system live (an
      // RM-committing strategy refuses work after a failed apply until
      // Recover() completes the interrupted transaction).
      if (disk.crashed()) disk.Restart();
      (void)driver->Recover();
    }
  }

  // Disarm everything and converge: with a healthy device, recovery plus a
  // final refresh must always succeed, and the golden triple must hold.
  disk.ClearFaults();
  if (disk.crashed()) disk.Restart();
  Status converged = Status::Internal("not attempted");
  for (int attempt = 0; attempt < 4 && !converged.ok(); ++attempt) {
    converged = driver->Converge();
  }
  if (!converged.ok() || !CheckGolden(driver.get(), shadow).ok()) {
    outcome->corrupt = true;
  }

  cell->faults_injected += disk.faults_injected();
  cell->crashes += disk.crashes();
  cell->recoveries += driver->recoveries();
  cell->degraded_queries += driver->degraded_queries();
  return Status::OK();
}

}  // namespace

std::string FaultSweepResult::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  %-10s %6s %8s %8s %10s %9s %9s %9s %7s %8s\n", "rate",
                "runs", "faults", "crashes", "recoveries", "degraded",
                "rej-txns", "fail-qry", "stale", "corrupt");
  out += buf;
  for (const FaultSweepCell& cell : cells) {
    std::snprintf(buf, sizeof(buf),
                  "  %-10.4f %6d %8llu %8llu %10llu %9llu %9llu %9llu %7d "
                  "%8d\n",
                  cell.fault_rate, cell.runs,
                  static_cast<unsigned long long>(cell.faults_injected),
                  static_cast<unsigned long long>(cell.crashes),
                  static_cast<unsigned long long>(cell.recoveries),
                  static_cast<unsigned long long>(cell.degraded_queries),
                  static_cast<unsigned long long>(cell.rejected_txns),
                  static_cast<unsigned long long>(cell.failed_queries),
                  cell.silently_stale_runs, cell.corrupt_runs);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  total: %d runs, %d silently stale, %d corrupt\n",
                total_runs, total_silently_stale, total_corrupt);
  out += buf;
  return out;
}

StatusOr<FaultSweepResult> SimulateFaultSweep(const FaultSweepOptions& options) {
  if (options.model != 1 && options.model != 2) {
    return Status::InvalidArgument("fault sweep supports models 1 and 2");
  }
  if (options.runs_per_rate <= 0 || options.ops_per_run <= 0) {
    return Status::InvalidArgument("runs_per_rate and ops_per_run must be > 0");
  }
  const Params params =
      options.shrink_params ? TortureParams(options.params) : options.params;
  VIEWMAT_RETURN_IF_ERROR(params.Validate());

  for (const double rate : options.fault_rates) {
    if (rate < 0 || rate >= 1) {
      return Status::InvalidArgument("fault rates must be in [0, 1)");
    }
  }

  // One task per (rate, run): every run is fully self-contained (its own
  // disk, pool, strategy, and oracle) with a seed derived from the task
  // index, so the tasks can execute in any order on any worker. Results
  // merge in index order below, making the sweep bit-identical at any
  // job count — including errors, where the lowest-index failure wins.
  struct RunResult {
    Status status = Status::OK();
    FaultSweepCell delta;
    RunOutcome outcome;
  };
  const size_t runs_per_rate = static_cast<size_t>(options.runs_per_rate);
  const size_t total_tasks = options.fault_rates.size() * runs_per_rate;
  std::vector<RunResult> run_results =
      common::ParallelMap(options.jobs, total_tasks, [&](size_t idx) {
        const size_t rate_idx = idx / runs_per_rate;
        const int run = static_cast<int>(idx % runs_per_rate);
        RunResult r;
        r.status = RunOne(options, params, options.fault_rates[rate_idx],
                          RunSeed(options.seed, rate_idx, run), &r.delta,
                          &r.outcome);
        return r;
      });
  for (const RunResult& r : run_results) {
    VIEWMAT_RETURN_IF_ERROR(r.status);
  }

  FaultSweepResult result;
  for (size_t rate_idx = 0; rate_idx < options.fault_rates.size();
       ++rate_idx) {
    FaultSweepCell cell;
    cell.fault_rate = options.fault_rates[rate_idx];
    for (size_t run = 0; run < runs_per_rate; ++run) {
      const RunResult& r = run_results[rate_idx * runs_per_rate + run];
      ++cell.runs;
      cell.faults_injected += r.delta.faults_injected;
      cell.crashes += r.delta.crashes;
      cell.recoveries += r.delta.recoveries;
      cell.degraded_queries += r.delta.degraded_queries;
      cell.rejected_txns += r.outcome.rejected_txns;
      cell.failed_queries += r.outcome.failed_queries;
      if (r.outcome.silently_stale) ++cell.silently_stale_runs;
      if (r.outcome.corrupt) ++cell.corrupt_runs;
    }
    result.total_runs += cell.runs;
    result.total_silently_stale += cell.silently_stale_runs;
    result.total_corrupt += cell.corrupt_runs;
    result.cells.push_back(cell);
  }
  return result;
}

}  // namespace viewmat::sim
