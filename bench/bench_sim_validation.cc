// Cross-validation: drive the discrete-event simulator over the real
// storage engine for all three models and print measured ms/query next to
// the analytical TOTAL_* predictions. Absolute agreement is not expected
// (the simulator charges real B+-tree descents and buffer-pool effects the
// closed forms abstract away); the winner ordering and rough magnitudes
// should hold. Pass --quick for a smaller N.
//
// With --json this is the flagship observability report: every strategy
// run carries its component × phase attribution and an "explain the gap"
// breakdown of where the measured − analytical residual lives, the
// registry's labeled counters/histograms ride along, and the span trace of
// every run is embedded as a Chrome-trace document (extract with
// `jq .trace` and load in Perfetto).

#include <cstdio>

#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/bench_report.h"
#include "sim/simulator.h"

using namespace viewmat;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_sim_validation", cli.quick);
  costmodel::Params p;
  p.N = cli.quick ? 4000 : 20000;
  p.k = cli.quick ? 30 : 60;
  p.q = cli.quick ? 30 : 60;
  p.l = 10;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  sim::SimOptions options;
  options.tracer = &tracer;
  options.metrics = &metrics;
  // Bucket every strategy's cost stream into windows so the report carries
  // cost(view, component, phase, t) — a few dozen windows per run.
  options.timeline_window_ms = cli.quick ? 20000 : 50000;
  std::printf("# Simulator-vs-model validation (N=%.0f, k=%.0f, q=%.0f, "
              "l=%.0f)\n\n",
              p.N, p.k, p.q, p.l);
  auto m1 = sim::Simulate(1, p, options);
  if (m1.ok()) {
    std::printf("== Model 1 ==\n%s\n", m1->ToString().c_str());
    report.AddSimResult(*m1);
  }
  auto m2 = sim::Simulate(2, p, options);
  if (m2.ok()) {
    std::printf("== Model 2 ==\n%s\n", m2->ToString().c_str());
    report.AddSimResult(*m2);
  }
  auto m3 = sim::Simulate(3, p, options);
  if (m3.ok()) {
    std::printf("== Model 3 ==\n%s\n", m3->ToString().c_str());
    report.AddSimResult(*m3);
  }
  std::printf(
      "('adjusted' subtracts a no-view baseline run so the numbers are "
      "view-attributable, comparable to the analytical column)\n");
  report.AddNote("reading",
                 "winner ordering and rough magnitudes match the closed "
                 "forms; explain_gap attributes the residual to B+-tree "
                 "descents and buffer-pool effects the model abstracts away");
  // Advisor explain reports: the analytical winner for this workload point,
  // every formula evaluated, and the distance to the nearest winner flip.
  for (int model = 1; model <= 3; ++model) {
    const obs::ExplainReport explain = obs::BuildExplain(model, p);
    std::printf("%s\n", obs::ExplainText(explain).c_str());
    report.AddExplain(explain);
  }
  report.set_metrics(&metrics);
  report.set_tracer(&tracer);
  return sim::FinishBenchMain(cli, &report);
}
