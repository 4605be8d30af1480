// Microbenchmark (google-benchmark): exact hypergeometric Yao vs the
// Cardenas approximation, plus an accuracy spot-table on Appendix B's
// n/m > 10 claim, plus the disabled-tracer overhead check: a null-tracer
// ScopedSpan wrapped around the approximation must cost nothing
// measurable.
//
// With --json the google-benchmark harness is bypassed (it owns argv and
// stdout) and a manual chrono timing loop produces the same ns/op figures
// for the machine-readable report.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "costmodel/yao.h"
#include "obs/trace.h"
#include "sim/bench_report.h"

using namespace viewmat;

static void BM_YaoExact(benchmark::State& state) {
  const int64_t k = state.range(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(costmodel::YaoExact(100000, 2500, k));
  }
}
BENCHMARK(BM_YaoExact)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

static void BM_YaoApprox(benchmark::State& state) {
  const double k = static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(costmodel::YaoApprox(100000.0, 2500.0, k));
  }
}
BENCHMARK(BM_YaoApprox)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// The acceptance check for the tracer's null sink: same body as
// BM_YaoApprox with a disabled-span constructor/destructor pair inside the
// loop. Compare against BM_YaoApprox — the delta is the per-span cost when
// tracing is off.
static void BM_YaoApproxNullSpan(benchmark::State& state) {
  const double k = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const obs::ScopedSpan span(nullptr, "yao");
    benchmark::DoNotOptimize(costmodel::YaoApprox(100000.0, 2500.0, k));
  }
}
BENCHMARK(BM_YaoApproxNullSpan)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

namespace {

/// ns/op of one timed loop of `iters` calls.
template <typename Fn>
double LoopNsPerOp(int iters, Fn fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn(i);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
}

/// Nearest-rank quartiles of a sample.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

Quartiles QuartilesOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return {samples[n / 4], samples[n / 2], samples[3 * n / 4]};
}

/// Median-of-5 ns/op over repeated timed loops of `iters` calls.
template <typename Fn>
double NsPerOp(int iters, Fn fn) {
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) samples.push_back(LoopNsPerOp(iters, fn));
  return QuartilesOf(std::move(samples)).median;
}

/// Rounds of the paired null-span measurement.
constexpr int kPairedRounds = 21;

}  // namespace

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  std::printf("# Yao exact vs Cardenas approximation (Appendix B)\n");
  std::printf("%-10s %-10s %14s %14s %10s\n", "n/m", "k", "exact", "approx",
              "rel-err%");
  sim::BenchReport report("bench_yao_micro", cli.quick);
  for (const int64_t m : {2500, 10000, 50000}) {
    sim::SeriesTable table;
    char title[80];
    std::snprintf(title, sizeof(title),
                  "Yao accuracy (Appendix B) — n/m = %lld",
                  static_cast<long long>(100000 / m));
    table.title = title;
    table.x_label = "k";
    table.series_names = {"exact", "approx", "rel-err%"};
    for (const int64_t k : {10, 100, 1000, 10000}) {
      const double e = costmodel::YaoExact(100000, m, k);
      const double a = costmodel::YaoApprox(100000, m, k);
      const double err = e > 0 ? 100.0 * (a - e) / e : 0.0;
      std::printf("%-10lld %-10lld %14.3f %14.3f %9.3f%%\n",
                  static_cast<long long>(100000 / m),
                  static_cast<long long>(k), e, a, err);
      table.AddRow(static_cast<double>(k), {e, a, err});
    }
    report.AddTable(table);
  }
  std::printf("\n");

  if (cli.want_json()) {
    // Manual timing: google-benchmark owns stdout and argv, so the JSON
    // path measures with a plain chrono loop instead.
    const int iters = cli.quick ? 20000 : 200000;
    auto approx = [](int i) {
      benchmark::DoNotOptimize(
          costmodel::YaoApprox(100000.0, 2500.0, 10.0 + (i & 7)));
    };
    auto null_span = [](int i) {
      const obs::ScopedSpan span(nullptr, "yao");
      benchmark::DoNotOptimize(
          costmodel::YaoApprox(100000.0, 2500.0, 10.0 + (i & 7)));
    };
    // Paired: each round times the plain loop and the null-span loop back
    // to back, alternating which goes first, so a drift in machine speed
    // between rounds cancels out of the round's difference.
    std::vector<double> approx_samples;
    std::vector<double> span_samples;
    std::vector<double> diffs;
    for (int round = 0; round < kPairedRounds; ++round) {
      double plain_ns, span_ns;
      if (round % 2 == 0) {
        plain_ns = LoopNsPerOp(iters, approx);
        span_ns = LoopNsPerOp(iters, null_span);
      } else {
        span_ns = LoopNsPerOp(iters, null_span);
        plain_ns = LoopNsPerOp(iters, approx);
      }
      approx_samples.push_back(plain_ns);
      span_samples.push_back(span_ns);
      diffs.push_back(span_ns - plain_ns);
    }
    const double approx_ns = QuartilesOf(approx_samples).median;
    const double null_span_ns = QuartilesOf(span_samples).median;
    const Quartiles overhead_ns = QuartilesOf(diffs);
    const double exact_ns = NsPerOp(cli.quick ? 200 : 2000, [](int i) {
      benchmark::DoNotOptimize(costmodel::YaoExact(100000, 2500, 1000 + i));
    });
    sim::SeriesTable timing;
    timing.title = "Microbenchmark timings (wall clock; approx and "
                   "null-span: median of " +
                   std::to_string(kPairedRounds) +
                   " paired rounds, exact: median of 5)";
    timing.x_label = "row";
    timing.series_names = {"yao-approx-ns", "yao-approx-null-span-ns",
                           "yao-exact-k1000-ns"};
    timing.AddRow(0, {approx_ns, null_span_ns, exact_ns});
    report.AddTable(timing);
    char overhead[160];
    std::snprintf(overhead, sizeof(overhead),
                  "%.2f ns/span (median of %d paired rounds, quartiles "
                  "%.2f..%.2f; approx %.2f)",
                  overhead_ns.median, kPairedRounds, overhead_ns.q1,
                  overhead_ns.q3, approx_ns);
    report.AddNote("null_span_overhead", overhead);
    std::printf("disabled-tracer span overhead: %s\n", overhead);
    return sim::FinishBenchMain(cli, &report);
  }

  // Strip the flags BenchCli consumed; google-benchmark rejects unknown
  // arguments.
  std::vector<char*> bench_argv;
  bench_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") continue;
    if (arg == "--json" && i + 1 < argc) {
      ++i;
      continue;
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
