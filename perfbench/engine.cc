// engine_cold: one thread calls StrategyDriver::OnTransaction / Query
// directly on seven model x strategy combos, each with the default 128-frame
// buffer pool against 2,789-3,432 loaded pages, so reads go to the simulated
// device. No net, session or lock work: the storage-bound control.
#include <memory>

#include "common.h"

namespace perfbench {
namespace {

using viewmat::Status;
using viewmat::obs::ScopedSpan;
using viewmat::obs::Tracer;
using viewmat::sim::StrategyDriver;
using viewmat::sim::StrategyKind;
using viewmat::sim::ViewMultiset;

constexpr double kUpdateFraction = 0.25;
/// Passes over the combos; each pass gives every combo an equal time slice,
/// so a slow episode of the host falls on every combo alike.
constexpr int kPasses = 15;
/// Set-ups per combo; the median of each counts towards setup_s.
constexpr int kSetupRepeats = 5;
/// Sampled post-run queries checked against the shadow oracle, per combo.
constexpr int kCheckQueries = 16;

struct Combo {
  int model;
  StrategyKind kind;
  const char* tag;
};

// Snapshot and recompute-on-change are left out: each of their queries
// rescans the base (~100 ms per query), which would fill the run and hide
// every other layer.
constexpr Combo kCombos[] = {
    {1, StrategyKind::kQueryModification, "m1_qm"},
    {1, StrategyKind::kImmediate, "m1_immediate"},
    {1, StrategyKind::kDeferred, "m1_deferred"},
    {1, StrategyKind::kHybrid, "m1_hybrid"},
    {2, StrategyKind::kQueryModification, "m2_qm"},
    {2, StrategyKind::kImmediate, "m2_immediate"},
    {2, StrategyKind::kDeferred, "m2_deferred"},
};
constexpr size_t kNumCombos = sizeof(kCombos) / sizeof(kCombos[0]);

struct Engine {
  Combo combo;
  std::unique_ptr<StrategyDriver> driver;
  viewmat::sim::ShadowOracle shadow;
  std::unique_ptr<OpStream> stream;
  uint64_t ops = 0;
  double model_ms_start = 0.0;   ///< tracker model ms after set-up
  double model_ms_window = 0.0;  ///< model ms of the first window ops
  uint64_t window_ops = 0;
  // Untraced throughput of this combo, summed over passes.
  uint64_t timed_ops = 0;
  double timed_s = 0.0;
};

/// One pass's tallies over all combos.
struct Tally {
  uint64_t ops = 0;
  double wall_s = 0.0;
  std::vector<double> update_us;
  std::vector<double> query_us;
};

/// Ops per wall second over all passes. A whole-phase average moves
/// smoothly with the share of the phase a slow host episode covers, where
/// a median over passes jumps between the fast and the slow level.
double Rate(const std::vector<Tally>& tallies) {
  double ops = 0.0, wall_s = 0.0;
  for (const Tally& t : tallies) {
    ops += t.ops;
    wall_s += t.wall_s;
  }
  return ops / wall_s;
}

/// Runs ops on one engine until `deadline` (and, in the first pass, until
/// the model window is complete). Every query's tuple count is checked.
void Drive(Engine* e, Clock::time_point deadline, uint64_t window_ops,
           Tracer* tracer, Tally* tally, Report* report) {
  StrategyDriver* driver = e->driver.get();
  const Clock::time_point start = Clock::now();
  uint64_t ops = 0;
  while (Clock::now() < deadline || e->ops < window_ops) {
    const PaperOp op = e->stream->Next();
    if (op.is_update) {
      std::map<int64_t, double> staged;
      const viewmat::db::Transaction txn =
          BuildDeltaTxn(e->shadow, driver->base(), op.victims, &staged);
      const Clock::time_point t0 = Clock::now();
      Status st;
      {
        const ScopedSpan span(tracer, "bench.driver.on_transaction");
        st = driver->OnTransaction(txn);
      }
      tally->update_us.push_back(MicrosBetween(t0, Clock::now()));
      if (st.ok()) {
        for (const auto& [key, v] : staged) e->shadow.v[key] = v;
      } else {
        report->Fail(std::string(e->combo.tag) + " OnTransaction: " +
                     st.ToString());
      }
    } else {
      int64_t count = 0;
      const Clock::time_point t0 = Clock::now();
      Status st;
      {
        const ScopedSpan span(tracer, "bench.driver.query");
        st = driver->Query(op.lo, op.hi,
                           [&count](const viewmat::db::Tuple&, int64_t c) {
                             count += c;
                             return true;
                           });
      }
      tally->query_us.push_back(MicrosBetween(t0, Clock::now()));
      if (!st.ok()) {
        report->Fail(std::string(e->combo.tag) + " Query: " + st.ToString());
      } else if (count != ExpectedRangeCount(e->shadow, op.lo, op.hi)) {
        report->Fail(std::string(e->combo.tag) + " query returned " +
                     std::to_string(count) + " tuples");
      }
    }
    ++ops;
    ++e->ops;
    ++report->attempted;
    if (e->ops == window_ops) {
      e->model_ms_window = driver->tracker()->TotalMs() - e->model_ms_start;
      e->window_ops = window_ops;
    }
  }
  tally->ops += ops;
  tally->wall_s += SecondsSince(start);
}

/// Runs `passes` round-robin passes over the engines within `seconds`.
std::vector<Tally> RunPasses(std::vector<Engine>* engines, double seconds,
                             int passes, uint64_t window_ops, Tracer* tracer,
                             bool count_combo_rate, Report* report) {
  std::vector<Tally> tallies(passes);
  const double slice =
      seconds / (passes * static_cast<double>(engines->size()));
  for (int p = 0; p < passes; ++p) {
    for (Engine& e : *engines) {
      const auto deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(slice));
      const uint64_t before = tallies[p].ops;
      const double wall_before = tallies[p].wall_s;
      Drive(&e, deadline, window_ops, tracer, &tallies[p], report);
      if (count_combo_rate) {
        e.timed_ops += tallies[p].ops - before;
        e.timed_s += tallies[p].wall_s - wall_before;
      }
    }
  }
  return tallies;
}

/// Post-run correctness: converge, then the visible base against the
/// shadow, a from-scratch recompute and a full-range query against the
/// expected view, and sampled range queries against ExpectedRange.
void CheckEngine(Engine* e, uint64_t seed,
                 const viewmat::costmodel::Params& params, Report* report) {
  StrategyDriver* driver = e->driver.get();
  const std::string tag = e->combo.tag;
  const auto fail = [&](const std::string& what) {
    report->Fail(tag + " check: " + what);
  };
  if (Status st = driver->Converge(); !st.ok()) {
    fail("Converge: " + st.ToString());
    return;
  }
  const viewmat::sim::ShadowOracle& shadow = e->shadow;
  ViewMultiset base;
  if (Status st = driver->VisibleBase(&base); !st.ok()) {
    fail("VisibleBase: " + st.ToString());
  } else {
    ViewMultiset want;
    for (int64_t key = 0; key < shadow.n; ++key) {
      want[shadow.BaseTuple(key)] += 1;
    }
    if (base != want) fail("visible base differs from the committed updates");
  }
  const ViewMultiset expected =
      viewmat::sim::ExpectedRange(shadow, e->combo.model, 0, shadow.n - 1);
  ViewMultiset recomputed;
  if (Status st = viewmat::sim::RecomputeFromBase(
          e->combo.model, driver->sp_def(), driver->join_def(), driver->base(),
          &recomputed);
      !st.ok()) {
    fail("RecomputeFromBase: " + st.ToString());
  } else if (recomputed != expected) {
    fail("recompute from base differs from the expected view");
  }
  const auto query = [&](int64_t lo, int64_t hi, ViewMultiset* got) {
    return driver->Query(lo, hi, [got](const viewmat::db::Tuple& t, int64_t c) {
      (*got)[t] += c;
      return true;
    });
  };
  ViewMultiset full;
  if (Status st = query(0, shadow.n - 1, &full); !st.ok()) {
    fail("full query: " + st.ToString());
  } else if (full != expected) {
    fail("full-range query differs from the expected view");
  }
  OpStream sampler(params, seed ^ 0x94d049bb133111ebULL, 0.0);
  for (int i = 0; i < kCheckQueries; ++i) {
    const PaperOp op = sampler.Next();
    ViewMultiset got;
    if (Status st = query(op.lo, op.hi, &got); !st.ok()) {
      fail("sampled query: " + st.ToString());
    } else if (got != viewmat::sim::ExpectedRange(shadow, e->combo.model, op.lo,
                                                  op.hi)) {
      fail("sampled query [" + std::to_string(op.lo) + ", " +
           std::to_string(op.hi) + "] differs from ExpectedRange");
    }
  }
}

}  // namespace

void RunEngineCold(const Config& config, Report* report) {
  const viewmat::costmodel::Params params = PaperParams(config.tiny);
  const uint64_t window_ops = config.tiny ? 20 : 500;

  std::vector<Engine> engines;
  engines.reserve(kNumCombos);
  // The workload's set-up is one load per combo; each is repeated and its
  // median kept, so setup_s is steady. The last engine built is measured.
  double setup_s = 0.0;
  for (const Combo& combo : kCombos) {
    StrategyDriver::Options options;
    options.kind = combo.kind;
    options.model = combo.model;
    options.params = params;
    options.seed = config.seed;
    std::vector<double> loads;
    viewmat::StatusOr<std::unique_ptr<StrategyDriver>> driver =
        Status::Internal("not built");
    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point t0 = Clock::now();
      driver = StrategyDriver::Create(options);
      loads.push_back(SecondsSince(t0));
    }
    setup_s += Median(loads);
    if (!driver.ok()) {
      report->Fail(std::string(combo.tag) + " Create: " +
                   driver.status().ToString());
      return;
    }
    Engine e;
    e.combo = combo;
    e.driver = std::move(driver).value();
    e.shadow = viewmat::sim::MakeShadow(*e.driver->scenario());
    e.stream = std::make_unique<OpStream>(params, config.seed, kUpdateFraction);
    e.model_ms_start = e.driver->tracker()->TotalMs();
    engines.push_back(std::move(e));
  }
  // Read before the timed phase: the engines' memory grows with the ops they
  // run, so a later reading would grow with the number of ops the host's
  // speed allowed.
  const double loaded_rss_mb = PeakRssMb();

  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const std::vector<Tally> timed = RunPasses(
      &engines, untraced_s, kPasses, window_ops, nullptr, true, report);
  std::vector<double> update_us, query_us;
  for (const Tally& t : timed) {
    update_us.insert(update_us.end(), t.update_us.begin(), t.update_us.end());
    query_us.insert(query_us.end(), t.query_us.begin(), t.query_us.end());
  }
  const double untraced_rate = Rate(timed);
  // Chunked, not over the whole phase: the slowest combos (Model 2
  // query-modification, Model 1 hybrid) run a few percent of the queries,
  // so a whole-phase p99 would sit on the edge of their mode.
  AddLatencyMetrics(update_us, query_us, config.trace, kLatencyChunk, report);

  if (!config.trace) {
    double model_ms = 0.0;
    uint64_t model_ops = 0;
    for (const Engine& e : engines) {
      model_ms += e.model_ms_window;
      model_ops += e.window_ops;
    }
    report->Add("ops_per_s", untraced_rate, "1/s");
    report->Add("model_ms_per_op", model_ms / model_ops, "model_ms");
    report->Add("setup_s", setup_s, "s");
    report->Add("peak_rss_mb", loaded_rss_mb, "MiB");
  } else {
    for (const Engine& e : engines) {
      report->Add(std::string("engine.") + e.combo.tag + ".ops_per_s",
                  e.timed_ops / e.timed_s, "1/s");
    }
    Tracer tracer;
    SteadyMsClock clock;
    WorkCounts before;
    for (Engine& e : engines) {
      e.driver->tracker()->set_tracer(&tracer);
      before += WorkCounts::Of(e.driver.get());
    }
    tracer.SetClock(&clock);  // set_tracer pointed it at the model clock
    const std::vector<Tally> traced = RunPasses(
        &engines, config.seconds / 2, kPasses, 0, &tracer, false, report);
    WorkCounts after;
    for (Engine& e : engines) {
      e.driver->tracker()->set_tracer(nullptr);
      after += WorkCounts::Of(e.driver.get());
    }
    double ops = 0.0, wall_s = 0.0;
    for (const Tally& t : traced) {
      ops += t.ops;
      wall_s += t.wall_s;
    }
    const SpanForest forest(tracer.spans());
    double driver_self_us = 0.0;
    for (size_t i = 0; i < forest.size(); ++i) {
      if (forest.span(i).name.rfind("bench.driver.", 0) == 0) {
        driver_self_us += forest.SelfUs(i);
      }
    }
    const ViewLayerTimes view = forest.ViewTimes();
    AddViewMetrics(view, report);
    report->Add("driver.self_us_per_op", driver_self_us / ops, "us");
    report->Add("view.us_per_op", view.root_us / ops, "us");
    report->Add("trace.wall_us_per_op", wall_s * 1e6 / ops, "us");
    report->Add("trace.overhead_frac", 1.0 - Rate(traced) / untraced_rate,
                "fraction");
    report->Add("setup.load_s", setup_s, "s");
    AddWorkMetrics(after - before, ops, report);
    WriteTrace(tracer, config.out_dir, "engine_cold");
  }

  for (Engine& e : engines) CheckEngine(&e, config.seed, params, report);
}

}  // namespace perfbench
