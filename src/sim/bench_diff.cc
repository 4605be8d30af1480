#include "sim/bench_diff.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/json.h"

namespace viewmat::sim {

namespace {

using common::JsonValue;

double NumberOr(const JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string StringOr(const JsonValue* v, const std::string& fallback) {
  return v != nullptr && v->is_string() ? v->string_value : fallback;
}

std::string FmtG(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Identity of a sim result: the workload point it simulated. Two reports
/// of the same bench hold the same points; matching by identity keeps the
/// diff stable if result order ever changes.
std::string SimResultKey(const JsonValue& r) {
  const JsonValue* params = r.Find("params");
  std::string key = "model=" + FmtG(NumberOr(r.Find("model"), 0));
  key += " seed=" + FmtG(NumberOr(r.Find("seed"), 0));
  if (params != nullptr) {
    for (const char* field : {"N", "k", "l", "q", "f", "f_v"}) {
      key += ' ';
      key += field;
      key += '=';
      key += FmtG(NumberOr(params->Find(field), 0));
    }
  }
  return key;
}

const JsonValue* FindByKey(const JsonValue& array,
                           const std::string& key,
                           std::string (*key_fn)(const JsonValue&)) {
  if (!array.is_array()) return nullptr;
  for (const JsonValue& item : array.items) {
    if (key_fn(item) == key) return &item;
  }
  return nullptr;
}

const JsonValue* FindByMember(const JsonValue& array, const char* member,
                              const std::string& value) {
  if (!array.is_array()) return nullptr;
  for (const JsonValue& item : array.items) {
    if (StringOr(item.Find(member), "") == value) return &item;
  }
  return nullptr;
}

/// Top component contributions to a run's ms-per-query delta, from the
/// explain_gap attribution both schema versions carry.
std::string AttributeRunDelta(const JsonValue& old_run,
                              const JsonValue& new_run) {
  const JsonValue* old_gap = old_run.Find("explain_gap");
  const JsonValue* new_gap = new_run.Find("explain_gap");
  if (old_gap == nullptr || new_gap == nullptr) return "";
  const JsonValue* old_by = old_gap->Find("component_ms_per_query");
  const JsonValue* new_by = new_gap->Find("component_ms_per_query");
  if (old_by == nullptr || new_by == nullptr || !new_by->is_object()) {
    return "";
  }
  struct Contribution {
    std::string component;
    double delta;
  };
  std::vector<Contribution> contributions;
  // Union of components: start from new, add old-only ones as negatives.
  for (const auto& [component, value] : new_by->members) {
    const double delta =
        value.number - NumberOr(old_by->Find(component), 0.0);
    if (delta != 0.0) contributions.push_back({component, delta});
  }
  for (const auto& [component, value] : old_by->members) {
    if (new_by->Find(component) == nullptr && value.number != 0.0) {
      contributions.push_back({component, -value.number});
    }
  }
  std::sort(contributions.begin(), contributions.end(),
            [](const Contribution& a, const Contribution& b) {
              return std::fabs(a.delta) > std::fabs(b.delta);
            });
  std::string out;
  const size_t shown = std::min<size_t>(contributions.size(), 3);
  for (size_t i = 0; i < shown; ++i) {
    if (!out.empty()) out += ", ";
    out += contributions[i].component;
    out += contributions[i].delta >= 0 ? " +" : " ";
    out += FmtG(contributions[i].delta);
  }
  if (!out.empty()) out += " ms/query";
  return out;
}

struct Differ {
  const DiffOptions& options;
  DiffResult result;

  void Compare(const std::string& path, double old_value, double new_value,
               std::string attribution = "", bool higher_is_better = false) {
    DiffEntry e;
    e.path = path;
    e.higher_is_better = higher_is_better;
    e.old_value = old_value;
    e.new_value = new_value;
    e.delta = new_value - old_value;
    if (old_value != 0.0) {
      e.relative = e.delta / std::fabs(old_value);
    } else {
      e.relative = new_value == 0.0
                       ? 0.0
                       : std::numeric_limits<double>::infinity();
    }
    // Cost-like metrics: growth past the threshold is a regression. A
    // metric springing from exactly 0 always is (0 -> anything has no
    // meaningful relative scale, and in a deterministic sim it means
    // behavior changed). A rate regresses by falling instead.
    e.regression = (higher_is_better ? -e.relative : e.relative) >
                   options.threshold;
    if (e.regression) e.attribution = std::move(attribution);
    result.entries.push_back(std::move(e));
  }

  void Error(const std::string& message) { result.errors.push_back(message); }
  void Note(const std::string& message) { result.notes.push_back(message); }

  void DiffRuns(const std::string& prefix, const JsonValue& old_result,
                const JsonValue& new_result) {
    const JsonValue* old_runs = old_result.Find("runs");
    const JsonValue* new_runs = new_result.Find("runs");
    if (old_runs == nullptr || !old_runs->is_array()) return;
    for (const JsonValue& old_run : old_runs->items) {
      const std::string name = StringOr(old_run.Find("name"), "?");
      const JsonValue* new_run =
          new_runs != nullptr ? FindByMember(*new_runs, "name", name)
                              : nullptr;
      if (new_run == nullptr) {
        Error(prefix + ": run '" + name + "' missing from new report");
        continue;
      }
      Compare(prefix + " " + name + " measured_ms_per_query",
              NumberOr(old_run.Find("measured_ms_per_query"), 0),
              NumberOr(new_run->Find("measured_ms_per_query"), 0),
              AttributeRunDelta(old_run, *new_run));
    }
    if (new_runs != nullptr && new_runs->is_array()) {
      for (const JsonValue& new_run : new_runs->items) {
        const std::string name = StringOr(new_run.Find("name"), "?");
        if (FindByMember(*old_runs, "name", name) == nullptr) {
          Note(prefix + ": new run '" + name + "' (no baseline)");
        }
      }
    }
  }

  void DiffSimResults(const JsonValue& old_root, const JsonValue& new_root) {
    const JsonValue* old_results = old_root.Find("sim_results");
    const JsonValue* new_results = new_root.Find("sim_results");
    if (old_results == nullptr || !old_results->is_array()) return;
    for (const JsonValue& old_result : old_results->items) {
      const std::string key = SimResultKey(old_result);
      const JsonValue* new_result =
          new_results != nullptr
              ? FindByKey(*new_results, key, SimResultKey)
              : nullptr;
      if (new_result == nullptr) {
        Error("sim_result [" + key + "] missing from new report");
        continue;
      }
      Compare("[" + key + "] baseline_ms_per_query",
              NumberOr(old_result.Find("baseline_ms_per_query"), 0),
              NumberOr(new_result->Find("baseline_ms_per_query"), 0));
      DiffRuns("[" + key + "]", old_result, *new_result);
    }
  }

  void DiffTables(const JsonValue& old_root, const JsonValue& new_root) {
    const JsonValue* old_tables = old_root.Find("tables");
    const JsonValue* new_tables = new_root.Find("tables");
    if (old_tables == nullptr || !old_tables->is_array()) return;
    for (const JsonValue& old_table : old_tables->items) {
      const std::string title = StringOr(old_table.Find("title"), "?");
      const JsonValue* new_table =
          new_tables != nullptr
              ? FindByMember(*new_tables, "title", title)
              : nullptr;
      if (new_table == nullptr) {
        Error("table '" + title + "' missing from new report");
        continue;
      }
      DiffOneTable(title, old_table, *new_table);
    }
  }

  void DiffOneTable(const std::string& title, const JsonValue& old_table,
                    const JsonValue& new_table) {
    const JsonValue* old_series = old_table.Find("series");
    const JsonValue* new_series = new_table.Find("series");
    const JsonValue* old_rows = old_table.Find("rows");
    const JsonValue* new_rows = new_table.Find("rows");
    if (old_series == nullptr || old_rows == nullptr ||
        !old_series->is_array() || !old_rows->is_array()) {
      return;
    }
    if (new_series == nullptr || new_rows == nullptr ||
        !new_series->is_array() || !new_rows->is_array()) {
      Error("table '" + title + "': malformed in new report");
      return;
    }
    for (size_t si = 0; si < old_series->items.size(); ++si) {
      const std::string& series = old_series->items[si].string_value;
      // The series may live at a different column index in the new table.
      size_t new_si = new_series->items.size();
      for (size_t j = 0; j < new_series->items.size(); ++j) {
        if (new_series->items[j].string_value == series) {
          new_si = j;
          break;
        }
      }
      if (new_si == new_series->items.size()) {
        Error("table '" + title + "': series '" + series +
              "' missing from new report");
        continue;
      }
      for (const JsonValue& old_row : old_rows->items) {
        const double x = NumberOr(old_row.Find("x"), 0);
        const JsonValue* new_row = nullptr;
        for (const JsonValue& candidate : new_rows->items) {
          if (std::fabs(NumberOr(candidate.Find("x"), 0) - x) <= 1e-9) {
            new_row = &candidate;
            break;
          }
        }
        if (new_row == nullptr) {
          Error("table '" + title + "': row x=" + FmtG(x) +
                " missing from new report");
          continue;
        }
        const JsonValue* old_values = old_row.Find("values");
        const JsonValue* new_values = new_row->Find("values");
        if (old_values == nullptr || si >= old_values->items.size()) continue;
        if (new_values == nullptr || new_si >= new_values->items.size()) {
          Error("table '" + title + "': row x=" + FmtG(x) +
                " truncated in new report");
          continue;
        }
        Compare("table '" + title + "' " + series + " @ x=" + FmtG(x),
                old_values->items[si].number,
                new_values->items[new_si].number, "",
                std::string_view(series).ends_with("_tps"));
      }
    }
  }
};

}  // namespace

size_t DiffResult::regressions() const {
  size_t n = 0;
  for (const DiffEntry& e : entries) n += e.regression ? 1 : 0;
  return n;
}

size_t DiffResult::improvements() const {
  size_t n = 0;
  for (const DiffEntry& e : entries) {
    const double gain = e.higher_is_better ? e.relative : -e.relative;
    n += (!e.regression && gain > threshold) ? 1 : 0;
  }
  return n;
}

std::string DiffResult::ToString(bool verbose) const {
  std::string out;
  char buf[160];
  for (const DiffEntry& e : entries) {
    if (!e.regression) continue;
    std::snprintf(buf, sizeof(buf), "REGRESSION %+.2f%%  ",
                  100.0 * e.relative);
    out += buf;
    out += e.path + ": " + FmtG(e.old_value) + " -> " + FmtG(e.new_value);
    if (!e.attribution.empty()) out += "  [" + e.attribution + "]";
    out += '\n';
  }
  for (const std::string& error : errors) out += "ERROR " + error + '\n';
  if (verbose) {
    for (const DiffEntry& e : entries) {
      if (e.regression) continue;
      std::snprintf(buf, sizeof(buf), "ok %+.2f%%  ", 100.0 * e.relative);
      out += buf;
      out += e.path + ": " + FmtG(e.old_value) + " -> " + FmtG(e.new_value);
      out += '\n';
    }
    for (const std::string& note : notes) out += "note " + note + '\n';
  }
  std::snprintf(buf, sizeof(buf),
                "%zu metrics compared, %zu regressions (threshold %+.2f%%), "
                "%zu improvements, %zu errors\n",
                entries.size(), regressions(), 100.0 * threshold,
                improvements(), errors.size());
  out += buf;
  return out;
}

StatusOr<double> ParseThreshold(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty threshold");
  }
  std::string_view number = text;
  bool percent = false;
  if (number.back() == '%') {
    percent = true;
    number.remove_suffix(1);
  }
  // from_chars, unlike strtod, consumes no leading whitespace, no '+',
  // and no hex forms — a gate flag should accept nothing looser than a
  // plain decimal. Trailing garbage ("5%%", "5x") fails the full-consume
  // check; "nan"/"inf" parse but fail the finite range check below.
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(number.data(), number.data() + number.size(), value);
  if (ec != std::errc() || end != number.data() + number.size()) {
    return Status::InvalidArgument("bad threshold: " + text);
  }
  const double fraction = percent ? value / 100.0 : value;
  if (!std::isfinite(fraction) || fraction < 0.0 || fraction > 10.0) {
    return Status::InvalidArgument("threshold out of range: " + text);
  }
  return fraction;
}

StatusOr<DiffResult> DiffBenchReports(const std::string& old_json,
                                      const std::string& new_json,
                                      const DiffOptions& options) {
  VIEWMAT_ASSIGN_OR_RETURN(const JsonValue old_root,
                           common::ParseJson(old_json));
  VIEWMAT_ASSIGN_OR_RETURN(const JsonValue new_root,
                           common::ParseJson(new_json));
  if (!old_root.is_object() || !new_root.is_object()) {
    return Status::InvalidArgument("bench reports must be JSON objects");
  }
  Differ differ{options, {}};
  differ.result.threshold = options.threshold;

  const std::string old_bench = StringOr(old_root.Find("bench"), "");
  const std::string new_bench = StringOr(new_root.Find("bench"), "");
  if (old_bench != new_bench) {
    differ.Error("bench name mismatch: '" + old_bench + "' vs '" +
                 new_bench + "'");
  }
  const JsonValue* old_quick = old_root.Find("quick");
  const JsonValue* new_quick = new_root.Find("quick");
  if (old_quick != nullptr && new_quick != nullptr &&
      old_quick->bool_value != new_quick->bool_value) {
    differ.Error("quick-mode mismatch: reports are not comparable");
  }

  differ.DiffSimResults(old_root, new_root);
  differ.DiffTables(old_root, new_root);
  return std::move(differ.result);
}

}  // namespace viewmat::sim
