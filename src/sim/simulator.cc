#include "sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "costmodel/model1.h"
#include "costmodel/model2.h"
#include "costmodel/model3.h"
#include "sim/strategy_driver.h"
#include "workload/workload.h"

namespace viewmat::sim {

namespace {

using costmodel::Params;
using costmodel::Strategy;
using workload::Scenario;

size_t AutoPoolPages(const Params& params) {
  // Enough frames to pin R2 during a join plus working headroom.
  const double r2_pages = params.f_R2 * params.b();
  return static_cast<size_t>(std::max(256.0, r2_pages + 96.0));
}

/// Per-operation observability for one strategy run: op counters and
/// model-ms histograms labeled by strategy name, plus the run's trace
/// track. All members null when the corresponding sink is off.
struct RunObservers {
  RunObservers(const SimOptions& options, storage::CostTracker* tracker,
               const std::string& run_name) {
    if (options.tracer != nullptr) {
      tracker->set_tracer(options.tracer);
      options.tracer->NewTrack(run_name);
    }
    if (options.metrics != nullptr) {
      const obs::Labels labels = {{"strategy", run_name}};
      // Bucket bounds in model ms: one disk I/O is C2 = 30, so the buckets
      // resolve "a few I/Os" through "a full scan".
      const std::vector<double> bounds = {30,   60,   120,   300,  600,
                                          1200, 3000, 15000, 60000};
      updates_total = options.metrics->GetCounter("sim_updates_total", labels);
      queries_total = options.metrics->GetCounter("sim_queries_total", labels);
      update_ms = options.metrics->GetHistogram("sim_update_ms", labels, bounds);
      query_ms = options.metrics->GetHistogram("sim_query_ms", labels, bounds);
    }
  }

  void OnUpdate(double ms) {
    if (updates_total != nullptr) {
      updates_total->Increment();
      update_ms->Observe(ms);
    }
  }
  void OnQuery(double ms) {
    if (queries_total != nullptr) {
      queries_total->Increment();
      query_ms->Observe(ms);
    }
  }

  obs::Counter* updates_total = nullptr;
  obs::Counter* queries_total = nullptr;
  obs::Histogram* update_ms = nullptr;
  obs::Histogram* query_ms = nullptr;
};

/// One strategy the simulator races on a model: the paper's name for it
/// (the report row and the cost formula) and the driver strategy that
/// executes it, with query modification's plan.
struct Contender {
  Strategy strategy;
  StrategyKind kind;
  Strategy qm_plan = Strategy::kQmClustered;
};

/// Every model's contenders, in report order.
std::vector<Contender> Contenders(int model) {
  constexpr StrategyKind kQm = StrategyKind::kQueryModification;
  const Contender deferred{Strategy::kDeferred, StrategyKind::kDeferred};
  const Contender immediate{Strategy::kImmediate, StrategyKind::kImmediate};
  switch (model) {
    case 1:
      return {deferred,
              immediate,
              {Strategy::kQmClustered, kQm},
              {Strategy::kQmUnclustered, kQm, Strategy::kQmUnclustered},
              {Strategy::kQmSequential, kQm, Strategy::kQmSequential}};
    case 2:
      return {deferred, immediate, {Strategy::kQmLoopJoin, kQm}};
    default:
      return {deferred, immediate, {Strategy::kQmRecompute, kQm}};
  }
}

/// A non-durable driver for one run of `model`'s workload.
StatusOr<std::unique_ptr<StrategyDriver>> MakeDriver(
    int model, const Params& params, uint64_t seed,
    const Contender& contender) {
  StrategyDriver::Options driver;
  driver.kind = contender.kind;
  driver.model = model;
  driver.params = params;
  driver.seed = seed;
  driver.pool_pages = AutoPoolPages(params);
  driver.durable = false;
  driver.qm_plan = contender.qm_plan;
  return StrategyDriver::Create(driver);
}

/// The run loop: drives the scenario's op sequence through one driver —
/// `update` applies each generated transaction, `query` serves each query.
/// Every operation starts cold: the pool is written back and dropped
/// between operations, matching the per-operation I/O counts the formulas
/// charge (caching still works *within* an operation, e.g. R2 pages stay
/// resident during one join). Fills the run's op counts, counters, and
/// ms/query, plus its timeline when timelines are on.
Status RunOps(const SimOptions& options, StrategyDriver* driver,
              const std::function<Status(const db::Transaction&)>& update,
              const std::function<Status()>& query, StrategyRun* run) {
  storage::BufferPool* pool = driver->pool();
  storage::CostTracker* tracker = driver->tracker();
  Scenario* scenario = driver->scenario();
  // Loading/initialization happens outside the measured window: persist it
  // and start the run cold.
  VIEWMAT_RETURN_IF_ERROR(pool->FlushAndEvictAll());
  tracker->Reset();
  RunObservers observe(options, tracker, run->name);
  std::unique_ptr<storage::TimelineRecorder> recorder;
  if (options.timeline_window_ms > 0) {
    recorder = std::make_unique<storage::TimelineRecorder>(
        tracker, options.timeline_window_ms);
  }
  for (const Scenario::OpKind op : scenario->OpSequence()) {
    const double before_ms = tracker->TotalMs();
    const bool is_update = op == Scenario::OpKind::kUpdate;
    if (is_update) {
      VIEWMAT_RETURN_IF_ERROR(
          update(scenario->NextUpdateTransaction(driver->base())));
      ++run->updates;
      observe.OnUpdate(tracker->TotalMs() - before_ms);
    } else {
      VIEWMAT_RETURN_IF_ERROR(query());
      ++run->queries;
      observe.OnQuery(tracker->TotalMs() - before_ms);
    }
    VIEWMAT_RETURN_IF_ERROR(pool->FlushAndEvictAll());
    // After the inter-op flush, so eviction traffic lands in the op's
    // window and the timeline sums to the run totals.
    if (recorder != nullptr) recorder->OnOp(is_update, before_ms);
  }
  VIEWMAT_RETURN_IF_ERROR(pool->FlushAll());
  if (recorder != nullptr) run->timeline = recorder->Finish();
  // The driver (and its clock) dies with the run; detach the tracer.
  if (options.tracer != nullptr) options.tracer->SetClock(nullptr);
  run->measured_ms_per_query =
      tracker->TotalMs() /
      static_cast<double>(std::max<size_t>(run->queries, 1));
  run->counters = tracker->counters();
  run->attributed = tracker->attributed();
  return Status::OK();
}

double AnalyticalFor(int model, Strategy s, const Params& p) {
  switch (model) {
    case 1: {
      auto c = costmodel::Model1Cost(s, p);
      return c.ok() ? *c : 0.0;
    }
    case 2: {
      auto c = costmodel::Model2Cost(s, p);
      return c.ok() ? *c : 0.0;
    }
    default: {
      auto c = costmodel::Model3Cost(s, p);
      return c.ok() ? *c : 0.0;
    }
  }
}

}  // namespace

std::string SimResult::ToString() const {
  std::string out;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "P=%.3f f=%.3f f_v=%.3f N=%.0f l=%.0f  "
                "(baseline %.1f ms/query)\n",
                params.P(), params.f, params.f_v, params.N, params.l,
                baseline_ms_per_query);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "model=%d seed=%llu pool_pages=%zu cold_cache=%s\n", model,
                static_cast<unsigned long long>(seed), buffer_pool_pages,
                cold_cache_between_ops ? "on" : "off");
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  %-26s %12s %12s %12s %9s %9s %9s %9s %9s\n", "strategy",
                "measured", "adjusted", "analytical", "reads", "writes",
                "screens", "cpu", "adops");
  out += buf;
  for (const StrategyRun& run : runs) {
    std::snprintf(
        buf, sizeof(buf),
        "  %-26s %12.1f %12.1f %12.1f %9llu %9llu %9llu %9llu %9llu\n",
        run.name.c_str(), run.measured_ms_per_query,
        run.adjusted_ms_per_query, run.analytical_ms_per_query,
        static_cast<unsigned long long>(run.counters.disk_reads),
        static_cast<unsigned long long>(run.counters.disk_writes),
        static_cast<unsigned long long>(run.counters.screen_tests),
        static_cast<unsigned long long>(run.counters.tuple_cpu_ops),
        static_cast<unsigned long long>(run.counters.ad_set_ops));
    out += buf;
  }
  return out;
}

StatusOr<SimResult> Simulate(int model, const Params& params,
                             const SimOptions& options) {
  if (model < 1 || model > 3) {
    return Status::InvalidArgument("the paper has models 1, 2 and 3");
  }
  VIEWMAT_RETURN_IF_ERROR(params.Validate());
  SimResult result;
  result.params = params;
  result.model = model;
  result.seed = options.seed;
  result.buffer_pool_pages = AutoPoolPages(params);

  // --- Baseline: transactions hit the base relation, queries do no view
  // work (but draw their range, as the tuple-view contenders do).
  {
    VIEWMAT_ASSIGN_OR_RETURN(
        std::unique_ptr<StrategyDriver> driver,
        MakeDriver(model, params, options.seed,
                   {Strategy::kQmClustered, StrategyKind::kQueryModification}));
    Scenario* scenario = driver->scenario();
    StrategyRun baseline;
    baseline.name = "baseline";
    VIEWMAT_RETURN_IF_ERROR(RunOps(
        options, driver.get(),
        [](const db::Transaction& txn) { return txn.ApplyToBase(); },
        [scenario] {
          scenario->NextQueryRange();
          return Status::OK();
        },
        &baseline));
    result.baseline_ms_per_query = baseline.measured_ms_per_query;
  }

  for (const Contender& contender : Contenders(model)) {
    VIEWMAT_ASSIGN_OR_RETURN(
        std::unique_ptr<StrategyDriver> driver,
        MakeDriver(model, params, options.seed, contender));
    StrategyDriver* engine = driver.get();
    StrategyRun run;
    run.name = costmodel::StrategyName(contender.strategy);
    VIEWMAT_RETURN_IF_ERROR(RunOps(
        options, engine,
        [engine](const db::Transaction& txn) {
          return engine->OnTransaction(txn);
        },
        [engine, model]() -> Status {
          const auto ignore = [](const db::Tuple&, int64_t) { return true; };
          if (model == 3) {
            // The aggregate has no range: Model 3 draws none and reads its
            // one group.
            return engine->Query(std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(), ignore);
          }
          const Scenario::QueryRange range =
              engine->scenario()->NextQueryRange();
          return engine->Query(range.lo, range.hi, ignore);
        },
        &run));
    run.adjusted_ms_per_query =
        run.measured_ms_per_query - result.baseline_ms_per_query;
    run.analytical_ms_per_query =
        AnalyticalFor(model, contender.strategy, params);
    result.runs.push_back(std::move(run));
  }
  return result;
}

}  // namespace viewmat::sim
