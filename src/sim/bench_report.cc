#include "sim/bench_report.h"

#include <chrono>
#include <cstdio>
#include <string>

#include "common/json.h"
#include "common/logging.h"

#ifndef VIEWMAT_GIT_DESCRIBE
#define VIEWMAT_GIT_DESCRIBE "unknown"
#endif

namespace viewmat::sim {

namespace {

using common::JsonWriter;
using storage::Component;
using storage::CostCounters;
using storage::Phase;

void WriteCounters(JsonWriter* w, const CostCounters& c) {
  w->BeginObject();
  w->KV("disk_reads", c.disk_reads);
  w->KV("disk_writes", c.disk_writes);
  w->KV("screen_tests", c.screen_tests);
  w->KV("tuple_cpu_ops", c.tuple_cpu_ops);
  w->KV("ad_set_ops", c.ad_set_ops);
  w->EndObject();
}

void WriteParams(JsonWriter* w, const costmodel::Params& p) {
  p.WriteJson(w);
}

void WriteTable(JsonWriter* w, const SeriesTable& t) {
  w->BeginObject();
  w->KV("title", t.title);
  w->KV("x_label", t.x_label);
  w->Key("series");
  w->BeginArray();
  for (const std::string& name : t.series_names) w->String(name);
  w->EndArray();
  w->Key("rows");
  w->BeginArray();
  for (const SeriesTable::Row& row : t.rows) {
    w->BeginObject();
    w->KV("x", row.x);
    w->Key("values");
    w->BeginArray();
    for (const double v : row.values) w->Double(v);
    w->EndArray();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

/// Model milliseconds of a counter cell under the paper's unit costs.
double CellMs(const CostCounters& c, const costmodel::Params& p) {
  return p.C2 * static_cast<double>(c.disk_ios()) +
         p.C1 * static_cast<double>(c.screen_tests + c.tuple_cpu_ops) +
         p.C3 * static_cast<double>(c.ad_set_ops);
}

/// Per-run cost timeline: window index, op counts, sparse attributed
/// cells, and the drift signals stamped when the window closed. The
/// windows' totals sum to the run's flat counters (schema check enforced).
void WriteTimeline(JsonWriter* w, const storage::CostTimeline& timeline,
                   const costmodel::Params& p) {
  w->BeginObject();
  w->KV("window_ms", timeline.window_ms);
  w->Key("windows");
  w->BeginArray();
  for (const storage::TimelineWindow& win : timeline.windows) {
    w->BeginObject();
    w->KV("index", win.index);
    w->KV("begin_ms", static_cast<double>(win.index) * timeline.window_ms);
    w->KV("end_ms",
          static_cast<double>(win.index + 1) * timeline.window_ms);
    w->KV("updates", win.updates);
    w->KV("queries", win.queries);
    w->Key("totals");
    WriteCounters(w, win.totals);
    w->Key("cells");
    w->BeginArray();
    for (const storage::TimelineCell& cell : win.cells) {
      w->BeginObject();
      w->KV("component", storage::ComponentName(cell.component));
      w->KV("phase", storage::PhaseName(cell.phase));
      w->Key("counters");
      WriteCounters(w, cell.counters);
      w->KV("ms", CellMs(cell.counters, p));
      w->EndObject();
    }
    w->EndArray();
    const storage::TimelineSignals& s = win.signals;
    w->Key("signals");
    w->BeginObject();
    w->KV("update_fraction", s.update_fraction);
    w->KV("update_ms", s.update_ms);
    w->KV("refresh_ms", s.refresh_ms);
    w->KV("query_ms", s.query_ms);
    w->KV("refresh_ms_per_update", s.refresh_ms_per_update);
    w->KV("query_ms_per_query", s.query_ms_per_query);
    w->KV("io_per_op", s.io_per_op);
    w->KV("ewma_update_ms", s.ewma_update_ms);
    w->KV("ewma_query_ms", s.ewma_query_ms);
    w->KV("p50_op_ms", s.p50_op_ms);
    w->KV("p95_op_ms", s.p95_op_ms);
    w->EndObject();
    w->EndObject();
  }
  w->EndArray();
  w->EndObject();
}

void WriteRun(JsonWriter* w, const StrategyRun& run, const SimResult& result) {
  const costmodel::Params& p = result.params;
  w->BeginObject();
  w->KV("name", run.name);
  w->KV("queries", static_cast<uint64_t>(run.queries));
  w->KV("updates", static_cast<uint64_t>(run.updates));
  w->KV("measured_ms_per_query", run.measured_ms_per_query);
  w->KV("adjusted_ms_per_query", run.adjusted_ms_per_query);
  w->KV("analytical_ms_per_query", run.analytical_ms_per_query);
  w->Key("counters");
  WriteCounters(w, run.counters);

  // Attribution matrix, sparse: only non-empty (component, phase) cells.
  // The cells sum to `counters` exactly; the schema checker verifies it.
  w->Key("attributed");
  w->BeginArray();
  for (size_t c = 0; c < storage::kNumComponents; ++c) {
    for (size_t ph = 0; ph < storage::kNumPhases; ++ph) {
      const CostCounters& cell = run.attributed.at(
          static_cast<Component>(c), static_cast<Phase>(ph));
      if (cell.empty()) continue;
      w->BeginObject();
      w->KV("component", storage::ComponentName(static_cast<Component>(c)));
      w->KV("phase", storage::PhaseName(static_cast<Phase>(ph)));
      w->Key("counters");
      WriteCounters(w, cell);
      w->KV("ms", CellMs(cell, p));
      w->EndObject();
    }
  }
  w->EndArray();

  // Explain the measured − analytical gap: where did the model milliseconds
  // actually go? Per-component and per-phase ms (per query, to match the
  // headline numbers) turn a bare residual into an attribution.
  const double queries = static_cast<double>(run.queries > 0 ? run.queries : 1);
  w->Key("explain_gap");
  w->BeginObject();
  w->KV("gap_ms_per_query",
        run.measured_ms_per_query - run.analytical_ms_per_query);
  w->KV("adjusted_gap_ms_per_query",
        run.adjusted_ms_per_query - run.analytical_ms_per_query);
  w->Key("component_ms_per_query");
  w->BeginObject();
  for (size_t c = 0; c < storage::kNumComponents; ++c) {
    const CostCounters total =
        run.attributed.ComponentTotal(static_cast<Component>(c));
    if (total.empty()) continue;
    w->KV(storage::ComponentName(static_cast<Component>(c)),
          CellMs(total, p) / queries);
  }
  w->EndObject();
  w->Key("phase_ms_per_query");
  w->BeginObject();
  for (size_t ph = 0; ph < storage::kNumPhases; ++ph) {
    const CostCounters total = run.attributed.PhaseTotal(static_cast<Phase>(ph));
    if (total.empty()) continue;
    w->KV(storage::PhaseName(static_cast<Phase>(ph)), CellMs(total, p) / queries);
  }
  w->EndObject();
  w->EndObject();

  if (!run.timeline.empty()) {
    w->Key("timeline");
    WriteTimeline(w, run.timeline, p);
  }

  w->EndObject();
}

void WriteSimResult(JsonWriter* w, const SimResult& r) {
  w->BeginObject();
  w->KV("model", r.model);
  w->KV("seed", r.seed);
  w->KV("buffer_pool_pages", static_cast<uint64_t>(r.buffer_pool_pages));
  w->KV("cold_cache_between_ops", r.cold_cache_between_ops);
  w->Key("params");
  WriteParams(w, r.params);
  w->KV("baseline_ms_per_query", r.baseline_ms_per_query);
  w->Key("runs");
  w->BeginArray();
  for (const StrategyRun& run : r.runs) WriteRun(w, run, r);
  w->EndArray();
  w->EndObject();
}

}  // namespace

BenchCli BenchCli::Parse(int argc, char** argv) {
  BenchCli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      cli.quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      cli.json_path = argv[++i];
    }
  }
  return cli;
}

std::string BenchReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema_version", 3);
  w.KV("bench", bench_name_);
  w.Key("build");
  w.BeginObject();
  w.KV("git_describe", VIEWMAT_GIT_DESCRIBE);
  w.EndObject();
  w.KV("quick", quick_);
  // How long the run took — the only block allowed to differ between two
  // runs of the same bench (the determinism check strips it).
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  w.Key("execution");
  w.BeginObject();
  w.KV("wall_seconds", wall_seconds);
  w.EndObject();
  w.Key("notes");
  w.BeginObject();
  for (const auto& [k, v] : notes_) w.KV(k, v);
  w.EndObject();
  w.Key("tables");
  w.BeginArray();
  for (const SeriesTable& t : tables_) WriteTable(&w, t);
  w.EndArray();
  w.Key("sim_results");
  w.BeginArray();
  for (const SimResult& r : sim_results_) WriteSimResult(&w, r);
  w.EndArray();
  if (!explains_.empty()) {
    w.Key("explain");
    w.BeginArray();
    for (const obs::ExplainReport& e : explains_) obs::WriteExplainJson(&w, e);
    w.EndArray();
  }
  if (metrics_ != nullptr) {
    w.Key("metrics");
    metrics_->WriteJson(&w);
  }
  if (tracer_ != nullptr && tracer_->span_count() > 0) {
    // A complete Chrome-trace document, embedded: extract with jq '.trace'
    // and load in Perfetto.
    w.Key("trace");
    w.RawValue(tracer_->ToChromeTraceJson());
  }
  w.EndObject();
  return w.str();
}

Status BenchReport::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open report file: " + path);
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool newline_ok = std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || written != json.size() || !newline_ok) {
    return Status::Internal("short write to report file: " + path);
  }
  return Status::OK();
}

Status FinishBench(const BenchCli& cli, BenchReport* report) {
  if (!cli.want_json()) return Status::OK();
  VIEWMAT_RETURN_IF_ERROR(report->WriteTo(cli.json_path));
  std::printf("wrote JSON report: %s\n", cli.json_path.c_str());
  return Status::OK();
}

int FinishBenchMain(const BenchCli& cli, BenchReport* report) {
  const Status status = FinishBench(cli, report);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace viewmat::sim
