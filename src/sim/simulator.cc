#include "sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "costmodel/model1.h"
#include "costmodel/model2.h"
#include "costmodel/model3.h"
#include "db/catalog.h"
#include "hr/ad_file.h"
#include "sim/strategy_driver.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "view/aggregate.h"
#include "view/deferred.h"
#include "view/immediate.h"
#include "view/query_modification.h"
#include "view/strategy.h"
#include "view/view_def.h"
#include "workload/workload.h"

namespace viewmat::sim {

namespace {

using costmodel::Params;
using costmodel::Strategy;
using workload::Scenario;

/// A database instance for one strategy run.
struct Instance {
  explicit Instance(const Params& params, size_t pool_pages)
      : tracker(params.C1, params.C2, params.C3),
        disk(static_cast<uint32_t>(params.B), &tracker),
        pool(&disk, pool_pages),
        catalog(&pool) {}

  storage::CostTracker tracker;
  storage::SimulatedDisk disk;
  storage::BufferPool pool;
  db::Catalog catalog;
};

size_t AutoPoolPages(const Params& params) {
  // Enough frames to pin R2 during a join plus working headroom.
  const double r2_pages = params.f_R2 * params.b();
  return static_cast<size_t>(std::max(256.0, r2_pages + 96.0));
}

hr::AdFile::Options AdOptionsFor(const Params& params) {
  hr::AdFile::Options options;
  const double expected = std::max(2.0 * params.u(), 64.0);
  options.expected_keys = static_cast<size_t>(expected);
  options.hash_buckets = static_cast<uint32_t>(
      std::max(2.0, 2.0 * params.u() / params.T() + 1.0));
  return options;
}

view::AggregateDef MakeAggDef(Scenario* scenario, db::Relation* base) {
  view::AggregateDef def;
  def.base = base;
  def.predicate = scenario->ViewPredicate();
  def.op = view::AggregateOp::kSum;
  def.agg_field = Scenario::kFieldV;
  return def;
}

/// Per-operation observability for one strategy run: op counters and
/// model-ms histograms labeled by strategy name, plus the run's trace
/// track. All members null when the corresponding sink is off.
struct RunObservers {
  RunObservers(const SimOptions& options, Instance* inst,
               const std::string& run_name) {
    if (options.tracer != nullptr) {
      inst->tracker.set_tracer(options.tracer);
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

/// One strategy the simulator races on a model.
struct Contender {
  Strategy strategy;
  /// How R (R1 for the join) is stored.
  db::AccessMethod base_method = db::AccessMethod::kClusteredBTree;
};

/// Every model's contenders, in report order. Model 1's unclustered query
/// modification reads R from a heap file.
std::vector<Contender> Contenders(int model) {
  switch (model) {
    case 1:
      return {{Strategy::kDeferred},
              {Strategy::kImmediate},
              {Strategy::kQmClustered},
              {Strategy::kQmUnclustered, db::AccessMethod::kHeap},
              {Strategy::kQmSequential}};
    case 2:
      return {{Strategy::kDeferred},
              {Strategy::kImmediate},
              {Strategy::kQmLoopJoin}};
    default:
      return {{Strategy::kDeferred},
              {Strategy::kImmediate},
              {Strategy::kQmRecompute}};
  }
}

/// Loads the model's relations into `inst`: R (R1 for the join) stored as
/// `method`, plus R2 for Model 2. Returns the updated relation.
StatusOr<db::Relation*> LoadRelations(int model, db::AccessMethod method,
                                      Scenario* scenario, Instance* inst,
                                      db::Relation** r2) {
  if (model != 2) return scenario->LoadBase(&inst->catalog, "R", method);
  VIEWMAT_ASSIGN_OR_RETURN(db::Relation * r1,
                           scenario->LoadBase(&inst->catalog, "R1", method));
  VIEWMAT_ASSIGN_OR_RETURN(*r2, scenario->LoadR2(&inst->catalog, "R2"));
  return r1;
}

/// Fills a materializing strategy's stored copy from the loaded base.
template <typename Base, typename S>
StatusOr<std::unique_ptr<Base>> Initialized(std::unique_ptr<S> strategy) {
  VIEWMAT_RETURN_IF_ERROR(strategy->InitializeFromBase());
  return std::unique_ptr<Base>(std::move(strategy));
}

/// Contender `which` over a tuple view: Model 1's select-project or
/// Model 2's join.
template <typename Def>
StatusOr<std::unique_ptr<view::ViewStrategy>> BuildTupleStrategy(
    Strategy which, const Def& def, const Params& params,
    storage::CostTracker* tracker) {
  using Owned = std::unique_ptr<view::ViewStrategy>;
  if (which == Strategy::kDeferred) {
    return Initialized<view::ViewStrategy>(
        std::make_unique<view::DeferredStrategy>(def, AdOptionsFor(params),
                                                 tracker));
  }
  if (which == Strategy::kImmediate) {
    return Initialized<view::ViewStrategy>(
        std::make_unique<view::ImmediateStrategy>(def, tracker));
  }
  if constexpr (std::is_same_v<Def, view::JoinDef>) {
    return Owned(std::make_unique<view::QmJoinStrategy>(def, tracker));
  } else {
    return Owned(std::make_unique<view::QmSelectProjectStrategy>(
        def, tracker,
        /*force_sequential=*/which == Strategy::kQmSequential));
  }
}

/// Contender `which` over Model 3's aggregate.
StatusOr<std::unique_ptr<view::AggregateStrategy>> BuildAggregateStrategy(
    Strategy which, const view::AggregateDef& def, const Params& params,
    Instance* inst) {
  if (which == Strategy::kDeferred) {
    return Initialized<view::AggregateStrategy>(
        std::make_unique<view::DeferredAggregateStrategy>(
            def, AdOptionsFor(params), &inst->disk, &inst->tracker));
  }
  if (which == Strategy::kImmediate) {
    return Initialized<view::AggregateStrategy>(
        std::make_unique<view::ImmediateAggregateStrategy>(def, &inst->disk,
                                                           &inst->tracker));
  }
  return std::unique_ptr<view::AggregateStrategy>(
      std::make_unique<view::RecomputeAggregateStrategy>(def,
                                                         &inst->tracker));
}

/// The run loop: drives the scenario's op sequence through one engine,
/// starting cold — `update` applies each generated transaction, `query`
/// serves each query. Fills the run's op counts, counters, and ms/query,
/// plus its timeline when timelines are on.
Status RunOps(const SimOptions& options, Scenario* scenario, Instance* inst,
              db::Relation* updated,
              const std::function<Status(const db::Transaction&)>& update,
              const std::function<Status()>& query, StrategyRun* run) {
  // Loading/initialization happens outside the measured window: persist it
  // and start the run cold.
  VIEWMAT_RETURN_IF_ERROR(inst->pool.FlushAndEvictAll());
  inst->tracker.Reset();
  RunObservers observe(options, inst, run->name);
  std::unique_ptr<storage::TimelineRecorder> recorder;
  if (options.timeline_window_ms > 0) {
    recorder = std::make_unique<storage::TimelineRecorder>(
        &inst->tracker, options.timeline_window_ms);
  }
  for (const Scenario::OpKind op : scenario->OpSequence()) {
    const double before_ms = inst->tracker.TotalMs();
    const bool is_update = op == Scenario::OpKind::kUpdate;
    if (is_update) {
      VIEWMAT_RETURN_IF_ERROR(
          update(scenario->NextUpdateTransaction(updated)));
      ++run->updates;
      observe.OnUpdate(inst->tracker.TotalMs() - before_ms);
    } else {
      VIEWMAT_RETURN_IF_ERROR(query());
      ++run->queries;
      observe.OnQuery(inst->tracker.TotalMs() - before_ms);
    }
    if (options.cold_cache_between_ops) {
      VIEWMAT_RETURN_IF_ERROR(inst->pool.FlushAndEvictAll());
    }
    // After the inter-op flush, so eviction traffic lands in the op's
    // window and the timeline sums to the run totals.
    if (recorder != nullptr) recorder->OnOp(is_update, before_ms);
  }
  VIEWMAT_RETURN_IF_ERROR(inst->pool.FlushAll());
  if (recorder != nullptr) run->timeline = recorder->Finish();
  // The instance (and its clock) dies with the run; detach the tracer.
  if (options.tracer != nullptr) options.tracer->SetClock(nullptr);
  run->measured_ms_per_query =
      inst->tracker.TotalMs() /
      static_cast<double>(std::max<size_t>(run->queries, 1));
  run->counters = inst->tracker.counters();
  run->attributed = inst->tracker.attributed();
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
  const size_t pool_pages = options.buffer_pool_pages != 0
                                ? options.buffer_pool_pages
                                : AutoPoolPages(params);
  SimResult result;
  result.params = params;
  result.model = model;
  result.seed = options.seed;
  result.buffer_pool_pages = pool_pages;
  result.cold_cache_between_ops = options.cold_cache_between_ops;

  // --- Baseline: transactions hit the base relation, queries do no view
  // work (but draw their range, as the tuple-view contenders do).
  {
    Scenario scenario(params, options.seed);
    Instance inst(params, pool_pages);
    db::Relation* r2 = nullptr;
    VIEWMAT_ASSIGN_OR_RETURN(
        db::Relation * base,
        LoadRelations(model, db::AccessMethod::kClusteredBTree, &scenario,
                      &inst, &r2));
    StrategyRun baseline;
    baseline.name = "baseline";
    VIEWMAT_RETURN_IF_ERROR(RunOps(
        options, &scenario, &inst, base,
        [](const db::Transaction& txn) { return txn.ApplyToBase(); },
        [&scenario] {
          scenario.NextQueryRange();
          return Status::OK();
        },
        &baseline));
    result.baseline_ms_per_query = baseline.measured_ms_per_query;
  }

  for (const Contender& contender : Contenders(model)) {
    Scenario scenario(params, options.seed);
    Instance inst(params, pool_pages);
    db::Relation* r2 = nullptr;
    VIEWMAT_ASSIGN_OR_RETURN(
        db::Relation * base,
        LoadRelations(model, contender.base_method, &scenario, &inst, &r2));
    std::unique_ptr<view::ViewStrategy> tuple;
    std::unique_ptr<view::AggregateStrategy> aggregate;
    if (model == 1) {
      VIEWMAT_ASSIGN_OR_RETURN(
          tuple, BuildTupleStrategy(contender.strategy,
                                    MakeSpDef(&scenario, base), params,
                                    &inst.tracker));
    } else if (model == 2) {
      VIEWMAT_ASSIGN_OR_RETURN(
          tuple, BuildTupleStrategy(contender.strategy,
                                    MakeJoinDef(&scenario, base, r2), params,
                                    &inst.tracker));
    } else {
      VIEWMAT_ASSIGN_OR_RETURN(
          aggregate,
          BuildAggregateStrategy(contender.strategy,
                                 MakeAggDef(&scenario, base), params, &inst));
    }

    StrategyRun run;
    run.name = costmodel::StrategyName(contender.strategy);
    VIEWMAT_RETURN_IF_ERROR(RunOps(
        options, &scenario, &inst, base,
        [&](const db::Transaction& txn) {
          return tuple != nullptr ? tuple->OnTransaction(txn)
                                  : aggregate->OnTransaction(txn);
        },
        [&]() -> Status {
          if (aggregate != nullptr) {
            // The aggregate has no range: Model 3 draws none.
            db::Value value;
            return aggregate->QueryValue(&value);
          }
          const Scenario::QueryRange range = scenario.NextQueryRange();
          return tuple->Query(range.lo, range.hi,
                              [](const db::Tuple&, int64_t) { return true; });
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
