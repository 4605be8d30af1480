// Validator for the schema_version-3 bench reports every bench binary
// emits under --json. Checks structure (required keys, table row widths,
// counter fields, the execution block, timeline windows, explain reports)
// and the observability invariants: each strategy run's component × phase
// attribution cells must sum to its flat counters exactly, and when the
// run carries a cost timeline, the windows' totals must sum to the same
// flat counters (no charge escapes its window).
//
// Usage:
//   bench_schema_check <report.json> [...]       validate existing files
//   bench_schema_check --run <bench> <out.json>  run `<bench> --quick
//                                                --json <out.json>`, then
//                                                validate the output
//   bench_schema_check --determinism <bench> <out1.json> <out2.json>
//                                                run `<bench> --quick` twice
//                                                and require byte-identical
//                                                reports (minus the
//                                                execution block, the only
//                                                part allowed to differ)
//
// Exit code 0 = every report valid. Used by the bench-smoke and
// determinism ctest labels.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

using viewmat::common::JsonValue;
using viewmat::common::ParseJson;

namespace {

int g_errors = 0;

void Fail(const std::string& where, const std::string& what) {
  std::fprintf(stderr, "schema error at %s: %s\n", where.c_str(),
               what.c_str());
  ++g_errors;
}

const JsonValue* Require(const JsonValue& obj, const std::string& where,
                         const std::string& key, JsonValue::Type type) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    Fail(where, "missing key '" + key + "'");
    return nullptr;
  }
  if (v->type != type) {
    Fail(where + "." + key, "wrong type");
    return nullptr;
  }
  return v;
}

/// The five CostCounters fields, as stable column order.
const char* const kCounterFields[] = {"disk_reads", "disk_writes",
                                      "screen_tests", "tuple_cpu_ops",
                                      "ad_set_ops"};

bool ReadCounters(const JsonValue& obj, const std::string& where,
                  uint64_t out[5]) {
  bool ok = true;
  for (int i = 0; i < 5; ++i) {
    const JsonValue* v =
        Require(obj, where, kCounterFields[i], JsonValue::Type::kNumber);
    out[i] = v != nullptr ? static_cast<uint64_t>(v->number) : 0;
    ok = ok && v != nullptr;
  }
  return ok;
}

void CheckTable(const JsonValue& table, const std::string& where) {
  Require(table, where, "title", JsonValue::Type::kString);
  Require(table, where, "x_label", JsonValue::Type::kString);
  const JsonValue* series =
      Require(table, where, "series", JsonValue::Type::kArray);
  const JsonValue* rows = Require(table, where, "rows", JsonValue::Type::kArray);
  if (series == nullptr || rows == nullptr) return;
  for (size_t i = 0; i < rows->items.size(); ++i) {
    const std::string row_where = where + ".rows[" + std::to_string(i) + "]";
    Require(rows->items[i], row_where, "x", JsonValue::Type::kNumber);
    const JsonValue* values =
        Require(rows->items[i], row_where, "values", JsonValue::Type::kArray);
    if (values != nullptr && values->items.size() != series->items.size()) {
      Fail(row_where, "row has " + std::to_string(values->items.size()) +
                          " values for " +
                          std::to_string(series->items.size()) + " series");
    }
  }
}

void CheckRun(const JsonValue& run, const std::string& where) {
  Require(run, where, "name", JsonValue::Type::kString);
  Require(run, where, "queries", JsonValue::Type::kNumber);
  Require(run, where, "updates", JsonValue::Type::kNumber);
  Require(run, where, "measured_ms_per_query", JsonValue::Type::kNumber);
  Require(run, where, "adjusted_ms_per_query", JsonValue::Type::kNumber);
  Require(run, where, "analytical_ms_per_query", JsonValue::Type::kNumber);

  uint64_t flat[5] = {0, 0, 0, 0, 0};
  const JsonValue* counters =
      Require(run, where, "counters", JsonValue::Type::kObject);
  if (counters != nullptr) ReadCounters(*counters, where + ".counters", flat);

  // The invariant behind "fully attributed": the sparse cells must sum to
  // the flat counters exactly — every charge landed in exactly one cell.
  const JsonValue* attributed =
      Require(run, where, "attributed", JsonValue::Type::kArray);
  if (attributed != nullptr && counters != nullptr) {
    uint64_t sums[5] = {0, 0, 0, 0, 0};
    for (size_t i = 0; i < attributed->items.size(); ++i) {
      const std::string cell_where =
          where + ".attributed[" + std::to_string(i) + "]";
      const JsonValue& cell = attributed->items[i];
      Require(cell, cell_where, "component", JsonValue::Type::kString);
      Require(cell, cell_where, "phase", JsonValue::Type::kString);
      Require(cell, cell_where, "ms", JsonValue::Type::kNumber);
      const JsonValue* cc =
          Require(cell, cell_where, "counters", JsonValue::Type::kObject);
      if (cc != nullptr) {
        uint64_t v[5];
        ReadCounters(*cc, cell_where + ".counters", v);
        for (int f = 0; f < 5; ++f) sums[f] += v[f];
      }
    }
    for (int f = 0; f < 5; ++f) {
      if (sums[f] != flat[f]) {
        Fail(where + ".attributed",
             std::string(kCounterFields[f]) + " cells sum to " +
                 std::to_string(sums[f]) + " but flat counter is " +
                 std::to_string(flat[f]));
      }
    }
  }

  const JsonValue* gap =
      Require(run, where, "explain_gap", JsonValue::Type::kObject);
  if (gap != nullptr) {
    const std::string gap_where = where + ".explain_gap";
    Require(*gap, gap_where, "gap_ms_per_query", JsonValue::Type::kNumber);
    Require(*gap, gap_where, "adjusted_gap_ms_per_query",
            JsonValue::Type::kNumber);
    Require(*gap, gap_where, "component_ms_per_query",
            JsonValue::Type::kObject);
    Require(*gap, gap_where, "phase_ms_per_query", JsonValue::Type::kObject);
  }

  // Timeline (optional: present when the bench recorded one). The windows'
  // totals must sum to the run's flat counters — the same conservation law
  // as the attribution matrix, applied over time.
  const JsonValue* timeline = run.Find("timeline");
  if (timeline != nullptr && counters != nullptr) {
    const std::string tl_where = where + ".timeline";
    const JsonValue* window_ms =
        Require(*timeline, tl_where, "window_ms", JsonValue::Type::kNumber);
    if (window_ms != nullptr && window_ms->number <= 0) {
      Fail(tl_where + ".window_ms", "must be > 0");
    }
    const JsonValue* windows =
        Require(*timeline, tl_where, "windows", JsonValue::Type::kArray);
    if (windows != nullptr) {
      if (windows->items.empty()) Fail(tl_where + ".windows", "empty");
      uint64_t sums[5] = {0, 0, 0, 0, 0};
      double last_index = -1;
      for (size_t i = 0; i < windows->items.size(); ++i) {
        const std::string win_where =
            tl_where + ".windows[" + std::to_string(i) + "]";
        const JsonValue& win = windows->items[i];
        const JsonValue* index =
            Require(win, win_where, "index", JsonValue::Type::kNumber);
        if (index != nullptr) {
          if (index->number <= last_index) {
            Fail(win_where + ".index", "must be strictly ascending");
          }
          last_index = index->number;
        }
        Require(win, win_where, "begin_ms", JsonValue::Type::kNumber);
        Require(win, win_where, "end_ms", JsonValue::Type::kNumber);
        Require(win, win_where, "updates", JsonValue::Type::kNumber);
        Require(win, win_where, "queries", JsonValue::Type::kNumber);
        const JsonValue* totals =
            Require(win, win_where, "totals", JsonValue::Type::kObject);
        if (totals != nullptr) {
          uint64_t v[5];
          ReadCounters(*totals, win_where + ".totals", v);
          for (int f = 0; f < 5; ++f) sums[f] += v[f];
        }
        const JsonValue* cells =
            Require(win, win_where, "cells", JsonValue::Type::kArray);
        if (cells != nullptr && totals != nullptr) {
          uint64_t cell_sums[5] = {0, 0, 0, 0, 0};
          for (size_t c = 0; c < cells->items.size(); ++c) {
            const std::string cell_where =
                win_where + ".cells[" + std::to_string(c) + "]";
            const JsonValue& cell = cells->items[c];
            Require(cell, cell_where, "component", JsonValue::Type::kString);
            Require(cell, cell_where, "phase", JsonValue::Type::kString);
            Require(cell, cell_where, "ms", JsonValue::Type::kNumber);
            const JsonValue* cc = Require(cell, cell_where, "counters",
                                          JsonValue::Type::kObject);
            if (cc != nullptr) {
              uint64_t v[5];
              ReadCounters(*cc, cell_where + ".counters", v);
              for (int f = 0; f < 5; ++f) cell_sums[f] += v[f];
            }
          }
          uint64_t totals_v[5];
          ReadCounters(*totals, win_where + ".totals", totals_v);
          for (int f = 0; f < 5; ++f) {
            if (cell_sums[f] != totals_v[f]) {
              Fail(win_where + ".cells",
                   std::string(kCounterFields[f]) + " cells sum to " +
                       std::to_string(cell_sums[f]) + " but window total is " +
                       std::to_string(totals_v[f]));
            }
          }
        }
        const JsonValue* signals =
            Require(win, win_where, "signals", JsonValue::Type::kObject);
        if (signals != nullptr) {
          for (const char* key :
               {"update_fraction", "update_ms", "refresh_ms", "query_ms",
                "refresh_ms_per_update", "query_ms_per_query", "io_per_op",
                "ewma_update_ms", "ewma_query_ms", "p50_op_ms",
                "p95_op_ms"}) {
            Require(*signals, win_where + ".signals", key,
                    JsonValue::Type::kNumber);
          }
        }
      }
      for (int f = 0; f < 5; ++f) {
        if (sums[f] != flat[f]) {
          Fail(tl_where,
               std::string(kCounterFields[f]) + " windows sum to " +
                   std::to_string(sums[f]) + " but flat counter is " +
                   std::to_string(flat[f]));
        }
      }
    }
  }
}

void CheckExplain(const JsonValue& explain, const std::string& where) {
  const JsonValue* model =
      Require(explain, where, "model", JsonValue::Type::kNumber);
  if (model != nullptr && (model->number < 1 || model->number > 3)) {
    Fail(where + ".model", "must be 1, 2, or 3");
  }
  Require(explain, where, "params", JsonValue::Type::kObject);
  Require(explain, where, "winner", JsonValue::Type::kString);
  Require(explain, where, "winner_cost_ms", JsonValue::Type::kNumber);
  const JsonValue* candidates =
      Require(explain, where, "candidates", JsonValue::Type::kArray);
  if (candidates != nullptr) {
    if (candidates->items.empty()) Fail(where + ".candidates", "empty");
    double last_cost = -1;
    for (size_t i = 0; i < candidates->items.size(); ++i) {
      const std::string cand_where =
          where + ".candidates[" + std::to_string(i) + "]";
      const JsonValue& cand = candidates->items[i];
      Require(cand, cand_where, "strategy", JsonValue::Type::kString);
      Require(cand, cand_where, "margin_ms", JsonValue::Type::kNumber);
      Require(cand, cand_where, "formula", JsonValue::Type::kString);
      const JsonValue* cost =
          Require(cand, cand_where, "cost_ms", JsonValue::Type::kNumber);
      if (cost != nullptr) {
        if (cost->number < last_cost) {
          Fail(cand_where + ".cost_ms", "candidates must be ranked ascending");
        }
        last_cost = cost->number;
      }
    }
  }
  const JsonValue* boundaries =
      Require(explain, where, "boundaries", JsonValue::Type::kArray);
  if (boundaries != nullptr) {
    for (size_t i = 0; i < boundaries->items.size(); ++i) {
      const std::string b_where =
          where + ".boundaries[" + std::to_string(i) + "]";
      const JsonValue& b = boundaries->items[i];
      Require(b, b_where, "param", JsonValue::Type::kString);
      Require(b, b_where, "current", JsonValue::Type::kNumber);
      Require(b, b_where, "boundary", JsonValue::Type::kNumber);
      Require(b, b_where, "distance", JsonValue::Type::kNumber);
      Require(b, b_where, "relative_distance", JsonValue::Type::kNumber);
      Require(b, b_where, "challenger", JsonValue::Type::kString);
    }
  }
}

void CheckSimResult(const JsonValue& result, const std::string& where) {
  const JsonValue* model =
      Require(result, where, "model", JsonValue::Type::kNumber);
  if (model != nullptr && (model->number < 1 || model->number > 3)) {
    Fail(where + ".model", "must be 1, 2, or 3");
  }
  Require(result, where, "seed", JsonValue::Type::kNumber);
  Require(result, where, "buffer_pool_pages", JsonValue::Type::kNumber);
  Require(result, where, "cold_cache_between_ops", JsonValue::Type::kBool);
  Require(result, where, "baseline_ms_per_query", JsonValue::Type::kNumber);
  const JsonValue* params =
      Require(result, where, "params", JsonValue::Type::kObject);
  if (params != nullptr) {
    for (const char* key : {"N", "k", "l", "q", "f", "f_v", "C1", "C2", "C3",
                            "b", "T", "u", "P"}) {
      Require(*params, where + ".params", key, JsonValue::Type::kNumber);
    }
  }
  const JsonValue* runs = Require(result, where, "runs", JsonValue::Type::kArray);
  if (runs != nullptr) {
    if (runs->items.empty()) Fail(where + ".runs", "no strategy runs");
    for (size_t i = 0; i < runs->items.size(); ++i) {
      CheckRun(runs->items[i], where + ".runs[" + std::to_string(i) + "]");
    }
  }
}

void CheckReport(const JsonValue& root, const std::string& file) {
  const JsonValue* version =
      Require(root, file, "schema_version", JsonValue::Type::kNumber);
  if (version != nullptr && version->number != 3) {
    Fail(file + ".schema_version", "expected 3");
  }
  const JsonValue* bench =
      Require(root, file, "bench", JsonValue::Type::kString);
  Require(root, file, "quick", JsonValue::Type::kBool);
  const JsonValue* execution =
      Require(root, file, "execution", JsonValue::Type::kObject);
  if (execution != nullptr) {
    const std::string exec_where = file + ".execution";
    const JsonValue* wall = Require(*execution, exec_where, "wall_seconds",
                                    JsonValue::Type::kNumber);
    if (wall != nullptr && wall->number < 0) {
      Fail(exec_where + ".wall_seconds", "must be >= 0");
    }
  }
  const JsonValue* build =
      Require(root, file, "build", JsonValue::Type::kObject);
  if (build != nullptr) {
    Require(*build, file + ".build", "git_describe", JsonValue::Type::kString);
  }
  const JsonValue* notes = Require(root, file, "notes", JsonValue::Type::kObject);
  if (notes != nullptr) {
    for (const auto& [key, value] : notes->members) {
      if (!value.is_string()) Fail(file + ".notes." + key, "must be a string");
    }
    // The chaos bench must publish its oracle verdict: the note is the
    // report's proof that every profile×combo cell audited clean (the
    // bench exits nonzero otherwise, so a report missing it was produced
    // by something else).
    if (bench != nullptr && bench->string_value == "bench_chaos") {
      Require(*notes, file + ".notes", "chaos_oracle",
              JsonValue::Type::kString);
    }
  }
  const JsonValue* tables =
      Require(root, file, "tables", JsonValue::Type::kArray);
  if (tables != nullptr) {
    for (size_t i = 0; i < tables->items.size(); ++i) {
      CheckTable(tables->items[i], file + ".tables[" + std::to_string(i) + "]");
    }
  }
  const JsonValue* sims =
      Require(root, file, "sim_results", JsonValue::Type::kArray);
  if (sims != nullptr) {
    for (size_t i = 0; i < sims->items.size(); ++i) {
      CheckSimResult(sims->items[i],
                     file + ".sim_results[" + std::to_string(i) + "]");
    }
  }
  const JsonValue* explain = root.Find("explain");  // optional
  if (explain != nullptr) {
    if (!explain->is_array()) {
      Fail(file + ".explain", "must be an array");
    } else {
      for (size_t i = 0; i < explain->items.size(); ++i) {
        CheckExplain(explain->items[i],
                     file + ".explain[" + std::to_string(i) + "]");
      }
    }
  }
  const JsonValue* metrics = root.Find("metrics");  // optional
  if (metrics != nullptr) {
    Require(*metrics, file + ".metrics", "counters", JsonValue::Type::kArray);
    Require(*metrics, file + ".metrics", "histograms",
            JsonValue::Type::kArray);
  }
  const JsonValue* trace = root.Find("trace");  // optional
  if (trace != nullptr) {
    Require(*trace, file + ".trace", "traceEvents", JsonValue::Type::kArray);
    Require(*trace, file + ".trace", "displayTimeUnit",
            JsonValue::Type::kString);
  }
}

int CheckFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  auto parsed = ParseJson(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 parsed.status().ToString().c_str());
    return 1;
  }
  const int before = g_errors;
  CheckReport(*parsed, path);
  if (g_errors != before) return 1;
  std::printf("%s: OK (schema_version 3)\n", path.c_str());
  return 0;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Removes the `"execution":{...}` member (and the comma binding it to its
/// neighbor) from a serialized report. Textual surgery is safe here: the
/// writer emits the block as one flat object with no nested braces or
/// embedded strings.
std::string StripExecutionBlock(std::string text) {
  const std::string key = "\"execution\":{";
  const size_t begin = text.find(key);
  if (begin == std::string::npos) return text;
  const size_t close = text.find('}', begin + key.size());
  if (close == std::string::npos) return text;
  size_t end = close + 1;
  size_t start = begin;
  if (start > 0 && text[start - 1] == ',') {
    --start;  // ",\"execution\":{...}"
  } else if (end < text.size() && text[end] == ',') {
    ++end;  // "\"execution\":{...},"
  }
  return text.erase(start, end - start);
}

int CheckDeterminism(const std::string& bench, const std::string& out1,
                     const std::string& out2) {
  for (const std::string* path : {&out1, &out2}) {
    const std::string command = bench + " --quick --json " + *path;
    std::printf("$ %s\n", command.c_str());
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "bench exited with status %d\n", rc);
      return 1;
    }
  }
  if (CheckFile(out1) != 0 || CheckFile(out2) != 0) return 1;
  const std::string a = StripExecutionBlock(ReadFileOrDie(out1));
  const std::string b = StripExecutionBlock(ReadFileOrDie(out2));
  if (a != b) {
    std::fprintf(stderr,
                 "DETERMINISM FAILURE: %s differs between two runs outside "
                 "the execution block\n",
                 bench.c_str());
    size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
    std::fprintf(stderr, "first divergence at byte %zu\n", i);
    return 1;
  }
  std::printf("%s: byte-identical across two runs\n", bench.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--run") {
    if (argc < 4) {
      std::fprintf(stderr,
                   "usage: bench_schema_check --run <bench> <out.json>\n");
      return 2;
    }
    const std::string command =
        std::string(argv[2]) + " --quick --json " + argv[3];
    std::printf("$ %s\n", command.c_str());
    const int rc = std::system(command.c_str());
    if (rc != 0) {
      std::fprintf(stderr, "bench exited with status %d\n", rc);
      return 1;
    }
    return CheckFile(argv[3]);
  }
  if (argc >= 2 && std::string(argv[1]) == "--determinism") {
    if (argc < 5) {
      std::fprintf(stderr,
                   "usage: bench_schema_check --determinism <bench> "
                   "<out1.json> <out2.json>\n");
      return 2;
    }
    return CheckDeterminism(argv[2], argv[3], argv[4]);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_schema_check <report.json> [...]\n"
                 "       bench_schema_check --run <bench> <out.json>\n"
                 "       bench_schema_check --determinism <bench> "
                 "<out1.json> <out2.json>\n");
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) rc |= CheckFile(argv[i]);
  return rc;
}
