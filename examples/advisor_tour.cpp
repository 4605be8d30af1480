// A tour of the strategy advisor: §4 of the paper boils down to "the best
// materialization strategy is application-dependent". This example walks
// the advisor (obs::BuildExplain) through the situations the paper calls
// out and prints, for each, the full cost ranking with every formula
// evaluated and how far the workload would have to drift before the winner
// changes.

#include <cstdio>

#include "costmodel/params.h"
#include "obs/explain.h"

using namespace viewmat;
using costmodel::Params;

namespace {

/// `model` is the paper's view model: 1 select-project, 2 join, 3 aggregate.
void Show(const char* headline, int model, const Params& p) {
  std::printf("== %s ==\n%s\n", headline,
              obs::ExplainText(obs::BuildExplain(model, p)).c_str());
}

}  // namespace

int main() {
  // 1. The paper's standard setting: a selection view, balanced load.
  Show("standard Model 1 setting (P=.5, f=.1, f_v=.1)", 1, Params());

  // 2. Read-mostly dashboard over the same view: materialize it.
  Show("read-mostly workload (P=.05)", 1,
       Params().WithUpdateProbability(0.05));

  // 3. A view whose only access path on the base would be unclustered:
  //    the materialized copy acts as an alternate clustered access path
  //    (§3.3's database-design observation).
  Params big_queries;
  big_queries.f_v = 0.5;
  Show("large queries against the view (f_v=.5, P=.3)", 1,
       big_queries.WithUpdateProbability(0.3));

  // 4. Join views cluster related data on one page — materialization's
  //    home turf.
  Show("two-relation join view, defaults", 2, Params());

  // 5. ...unless the view is huge and the queries are needles (EMP-DEPT).
  Params empdept;
  empdept.f = 1.0;
  empdept.l = 1.0;
  empdept.f_v = 1.0 / empdept.N;
  Show("EMP-DEPT: single-record lookups in a full join view (P=.2)",
       2, empdept.WithUpdateProbability(0.2));

  // 6. Aggregates: one stored block replaces a 250-page scan. Maintenance
  //    wins even under extreme update rates.
  Show("sum() over the selection, update-heavy (P=.9)",
       3, Params().WithUpdateProbability(0.9));

  std::printf(
      "summary of §4: high P, high f, or tiny f_v -> rewrite the query; "
      "join views and\naggregates -> materialize; deferred pulls ahead of "
      "immediate as the cost of\nmaintaining the A/D sets (C3) grows.\n");
  return 0;
}
