// §2.2.2 ablation: the Severance-Lohman Bloom screen. "One can design a
// Bloom filter with any desired ability to screen out accesses ... by
// increasing m." We sweep the filter size for a fixed 2u-entry AD file and
// measure the false-drop rate and the implied wasted probe I/O per 1000
// reads of clean keys.

#include <cstdio>
#include <vector>

#include "common/random.h"
#include "sim/bench_report.h"
#include "sim/report.h"
#include "storage/bloom_filter.h"

using namespace viewmat;

int main(int argc, char** argv) {
  const sim::BenchCli cli = sim::BenchCli::Parse(argc, argv);
  sim::BenchReport report("bench_ablation_bloom", cli.quick);
  constexpr int kAdKeys = 50;  // 2u at the paper's defaults
  const int kProbes = cli.quick ? 20000 : 200000;
  sim::SeriesTable table;
  table.title =
      "Bloom screen ablation (§2.2.2) — false drops vs filter size m, "
      "AD file holding 50 keys";
  table.x_label = "m-bits";
  table.series_names = {"bits/key", "predicted-fp%", "measured-fp%",
                        "wasted-ms/1000-reads"};
  Random key_rng(404);
  std::vector<uint64_t> keys;
  for (int i = 0; i < kAdKeys; ++i) keys.push_back(key_rng.Next());
  // Every filter size probes the same seeded key stream, so the sizes
  // compare like for like.
  for (const size_t bits : {64, 128, 256, 512, 1024, 2048, 4096}) {
    // Hash count tuned to the load factor, as ForExpectedKeys would pick.
    const int hashes = std::max(
        1, static_cast<int>(0.693 * static_cast<double>(bits) / kAdKeys));
    storage::BloomFilter filter(bits, hashes);
    for (const uint64_t k : keys) filter.Add(k);
    Random probe_rng(505);
    int fp = 0;
    for (int i = 0; i < kProbes; ++i) {
      if (filter.MayContain(probe_rng.Next())) ++fp;
    }
    const double measured = static_cast<double>(fp) / kProbes;
    // Each false drop wastes one 30 ms AD probe.
    table.AddRow(static_cast<double>(bits),
                 {static_cast<double>(bits) / kAdKeys,
                  100.0 * filter.ExpectedFpRate(), 100.0 * measured,
                  measured * 1000.0 * 30.0});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\n~10 bits/key already pushes false drops below 1%%, supporting the "
      "paper's 'count only one I/O' simplification for HR reads.\n");
  report.AddTable(table);
  report.AddNote("reading",
                 "~10 bits/key pushes false drops below 1%, supporting the "
                 "paper's count-only-one-I/O simplification for HR reads");
  return sim::FinishBenchMain(cli, &report);
}
