#ifndef VIEWMAT_SIM_BENCH_DIFF_H_
#define VIEWMAT_SIM_BENCH_DIFF_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace viewmat::sim {

/// Structured comparison of two BENCH report JSONs (schema v3, v2
/// accepted): the perf-regression gate. Every numeric metric in the old
/// report — per-run ms-per-query, baselines, series-table cells — is
/// matched against the new report by identity (model + seed + parameter
/// point, run name, table title / series / x), never by array position, so
/// reordering results is not a diff.
///
/// The simulator is deterministic, so "old" and "new" differ only if the
/// code's behavior changed; the gate's job is telling harmless drift from
/// a cost regression. Every metric is a cost (higher is worse) except a
/// rate — a table series named `*_tps`, committed transactions per model
/// second — where lower is worse. A metric is a regression when it moves
/// the worse way by more than `threshold` relative, an improvement when it
/// moves the better way by more. Metrics present in the old report but
/// missing from the new one are structural errors; metrics only in the new
/// report are recorded as notes.

struct DiffOptions {
  /// Relative growth beyond which a metric is a regression: 0.05 = +5%.
  double threshold = 0.05;
};

struct DiffEntry {
  std::string path;  ///< human-readable metric identity
  double old_value = 0;
  double new_value = 0;
  double delta = 0;     ///< new - old
  double relative = 0;  ///< delta / old (inf when old == 0 and new > 0)
  bool higher_is_better = false;  ///< a rate, not a cost
  bool regression = false;
  /// For run metrics: top component contributions to the delta, from the
  /// explain_gap attribution (e.g. "bptree +12.3, wal +0.8 ms/query").
  std::string attribution;
};

struct DiffResult {
  double threshold = 0;
  std::vector<DiffEntry> entries;    ///< every compared metric
  std::vector<std::string> errors;   ///< structural mismatches (gate fails)
  std::vector<std::string> notes;    ///< additions / informational

  size_t regressions() const;
  size_t improvements() const;  ///< moved the better way past threshold
  bool ok() const { return errors.empty() && regressions() == 0; }
  /// Rendering for the console: regressions first, then errors, then a
  /// one-line summary. `verbose` lists unchanged metrics too.
  std::string ToString(bool verbose = false) const;
};

/// Parses "5%" or "0.05" into a fraction.
StatusOr<double> ParseThreshold(const std::string& text);

/// Diffs two serialized reports (whole JSON documents, not file paths).
StatusOr<DiffResult> DiffBenchReports(const std::string& old_json,
                                      const std::string& new_json,
                                      const DiffOptions& options);

}  // namespace viewmat::sim

#endif  // VIEWMAT_SIM_BENCH_DIFF_H_
