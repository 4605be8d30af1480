#include "sim/fault_sweep.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/random.h"
#include "storage/faulty_disk.h"
#include "workload/workload.h"

namespace viewmat::sim {

namespace {

using costmodel::Params;
using storage::CrashPoint;
using workload::Scenario;

/// The protocol crash points an AD-journaled run may script, in
/// announcement order.
constexpr CrashPoint kScriptablePoints[] = {
    CrashPoint::kBeforeWalAppend, CrashPoint::kAfterWalAppend,
    CrashPoint::kBeforeViewPatch, CrashPoint::kMidViewPatch,
    CrashPoint::kAfterViewPatch,  CrashPoint::kBeforeFold,
    CrashPoint::kMidFold,         CrashPoint::kBeforeAdReset,
    CrashPoint::kMidAdReset,
};

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
    if (!is_query) {
      // One update transaction: l victims, each getting a fresh v. The
      // shadow advances only if the transaction durably committed. An
      // acknowledgment is definitive; an error is not — a torn write can
      // land the commit record in full while the append still reports
      // failure — so an errored transaction that got as far as a commit
      // attempt is resolved against the recovered log's committed-txn high
      // water mark before the next transaction is built from the shadow.
      db::Transaction txn;
      std::map<int64_t, double> staged;
      for (int64_t j = 0; j < l; ++j) {
        const int64_t key = static_cast<int64_t>(rng.Uniform(shadow.n));
        const double old_v =
            staged.count(key) ? staged[key] : shadow.v[key];
        const double new_v = rng.NextDouble() * 1000.0;
        db::Tuple old_t = shadow.BaseTuple(key);
        old_t.at(Scenario::kFieldV) = db::Value(old_v);
        db::Tuple new_t = old_t;
        new_t.at(Scenario::kFieldV) = db::Value(new_v);
        txn.Update(driver->base(), old_t, new_t);
        staged[key] = new_v;
      }
      const uint64_t seq_before = driver->txn_seq();
      const Status st = driver->OnTransaction(txn);
      bool committed = st.ok();
      if (!st.ok()) {
        if (driver->txn_seq() == seq_before) {
          // Rejected before a transaction id was even issued: no commit
          // record can exist. Best-effort recovery keeps the system live
          // (an RM-committing strategy refuses work after a failed apply
          // until Recover() completes the interrupted transaction).
          ++outcome->rejected_txns;
          if (disk.crashed()) disk.Restart();
          (void)driver->Recover();
        } else {
          // Ambiguous: recover until the log can be read (the fault budget
          // guarantees eventual success) and let the durable commit record
          // decide.
          const uint64_t id = driver->txn_seq();
          bool resolved = false;
          for (int attempt = 0; attempt < 1000; ++attempt) {
            if (disk.crashed()) disk.Restart();
            if (driver->Recover().ok()) {
              resolved = true;
              break;
            }
          }
          if (!resolved) {
            outcome->corrupt = true;  // healthy-budget recovery must succeed
            break;
          }
          committed = driver->committed_txn_high_water() >= id;
          if (!committed) ++outcome->rejected_txns;
        }
      }
      if (committed) {
        for (const auto& [key, new_v] : staged) shadow.v[key] = new_v;
      }
    } else {
      const int64_t lo = static_cast<int64_t>(rng.Uniform(shadow.n));
      const int64_t hi =
          lo + static_cast<int64_t>(rng.Uniform(std::max<int64_t>(
                   1, shadow.n / 2)));
      ViewMultiset got;
      const Status st = driver->Query(
          lo, hi, [&](const db::Tuple& value, int64_t count) {
            got[value] += count;
            return true;
          });
      if (!st.ok()) {
        // A loud failure is acceptable under faults; a wrong answer never.
        ++outcome->failed_queries;
      } else if (got != ExpectedRange(shadow, options.model, lo, hi)) {
        outcome->silently_stale = true;
      }
    }
  }

  // Disarm everything and converge: with a healthy device, recovery plus a
  // final refresh must always succeed.
  disk.ClearFaults();
  if (disk.crashed()) disk.Restart();
  Status converged = Status::Internal("not attempted");
  for (int attempt = 0; attempt < 4 && !converged.ok(); ++attempt) {
    converged = driver->Converge();
  }
  if (!converged.ok()) {
    outcome->corrupt = true;
  } else {
    // Golden invariant, checked three ways: the strategy's answer must
    // equal the shadow oracle AND a from-scratch recompute over the folded
    // base relation — and the base itself must hold exactly the committed
    // state.
    ViewMultiset answered;
    Status scan = driver->Query(0, shadow.n - 1,
                                [&](const db::Tuple& value, int64_t count) {
                                  answered[value] += count;
                                  return true;
                                });
    ViewMultiset recomputed;
    if (scan.ok()) {
      scan = RecomputeFromBase(options.model, driver->sp_def(),
                               driver->join_def(), driver->base(),
                               &recomputed);
    }
    ViewMultiset base_contents;
    if (scan.ok()) scan = driver->VisibleBase(&base_contents);
    if (!scan.ok()) {
      outcome->corrupt = true;
    } else {
      const ViewMultiset expected = ExpectedRange(
          shadow, options.model, 0, shadow.n - 1);
      ViewMultiset expected_base;
      for (int64_t key = 0; key < shadow.n; ++key) {
        expected_base[shadow.BaseTuple(key)] += 1;
      }
      if (answered != expected || recomputed != expected ||
          base_contents != expected_base) {
        outcome->corrupt = true;
      }
    }
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
