// perfbench: wall-clock benchmark from client to storage.
//
//   perfbench --workload <wire_deferred|server_disjoint|engine_cold>
//             --seed <n> --seconds <s> --trace <0|1> [--tiny] [--out-dir <d>]
//
// Prints a human summary on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the per-layer set (every
// name is always present; a layer a workload does not run reports 0). Exits
// 1 when a correctness check failed, 2 on bad arguments.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},    {"update_p99_us", "us"},
    {"query_p99_us", "us"},  {"model_ms_per_op", "model_ms"},
    {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
};

// The p50 latencies are reported per layer, ungated: in wire_deferred's
// closed loop they sit between the idle-server and queued modes of the
// latency distribution and moved more than throughput from run to run.
constexpr MetricSpec kPerLayer[] = {
    {"failed_op_frac", "fraction"},
    {"update_p50_us", "us"},
    {"query_p50_us", "us"},
    {"net.send_us", "us"},
    {"net.loop_self_us_per_op", "us"},
    {"net.msgs_per_op", "count"},
    {"net.retries", "count"},
    {"net.shed", "count"},
    {"client.self_us_per_op", "us"},
    {"session.self_us_per_op", "us"},
    {"session.checkpoints", "count"},
    {"server.self_us_per_op", "us"},
    {"server.lock_wait_p50_us", "us"},
    {"server.lock_wait_p99_us", "us"},
    {"server.commit_wait_p50_us", "us"},
    {"server.commit_wait_p99_us", "us"},
    {"server.blocked_acquire_frac", "fraction"},
    {"server.exclusive_op_frac", "fraction"},
    {"server.commit_batches", "count"},
    {"driver.self_us_per_op", "us"},
    {"view.us_per_op", "us"},
    {"view.txn_p50_us", "us"},
    {"view.query_p50_us", "us"},
    {"view.refresh_us_per_query", "us"},
    {"engine.m1_qm.ops_per_s", "1/s"},
    {"engine.m1_immediate.ops_per_s", "1/s"},
    {"engine.m1_deferred.ops_per_s", "1/s"},
    {"engine.m1_hybrid.ops_per_s", "1/s"},
    {"engine.m2_qm.ops_per_s", "1/s"},
    {"engine.m2_immediate.ops_per_s", "1/s"},
    {"engine.m2_deferred.ops_per_s", "1/s"},
    {"view.screen_tests_per_op", "count"},
    {"view.tuple_cpu_per_op", "count"},
    {"hr.ad_set_ops_per_op", "count"},
    {"storage.bptree.reads_per_op", "pages"},
    {"storage.bptree.writes_per_op", "pages"},
    {"storage.hash_index.reads_per_op", "pages"},
    {"storage.hash_index.writes_per_op", "pages"},
    {"storage.disk_ops_per_op", "count"},
    {"phase.query.ios_per_op", "pages"},
    {"storage.wal.writes_per_op", "pages"},
    {"storage.ad_log.writes_per_op", "pages"},
    {"storage.buffer_pool.writes_per_op", "pages"},
    {"storage.wal_syncs_forced", "count"},
    {"phase.update_apply.ios_per_op", "pages"},
    {"phase.refresh.ios_per_op", "pages"},
    {"setup.load_s", "s"},
    {"setup.schedule_s", "s"},
    {"trace.wall_us_per_op", "us"},
    {"trace.overhead_frac", "fraction"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<wire_deferred|server_disjoint|engine_cold> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--out-dir <dir>]\n",
               why);
  return 2;
}

template <size_t N>
const MetricSpec* Find(const MetricSpec (&specs)[N], const std::string& name) {
  for (const MetricSpec& s : specs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      config.trace = v == "1";
      have_trace = true;
    } else if (arg == "--out-dir" && has_value) {
      config.out_dir = argv[++i];
    } else {
      return Usage(("unexpected argument '" + arg + "'").c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (!(config.seconds > 0.0 && config.seconds <= 600.0)) {
    return Usage("--seconds must be in (0, 600]");
  }

  perfbench::Report report;
  if (config.workload == "wire_deferred") {
    perfbench::RunWireDeferred(config, &report);
  } else if (config.workload == "server_disjoint") {
    perfbench::RunServerDisjoint(config, &report);
  } else if (config.workload == "engine_cold") {
    perfbench::RunEngineCold(config, &report);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (report.attempted == 0) report.Fail("no operation was attempted", 0);
  if (config.trace) {
    report.Add("failed_op_frac",
               report.attempted == 0
                   ? 1.0
                   : static_cast<double>(report.failed) / report.attempted,
               "fraction");
  }

  // Every reported name must be one this command documents, with its unit;
  // a per-layer metric a workload does not touch reports 0.
  std::string json = "{";
  bool first = true;
  const auto emit = [&](const char* name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name, value, unit);
    json += buf;
    first = false;
    std::fprintf(stderr, "  %-36s %16.6f %s\n", name, value, unit);
  };
  for (const perfbench::Metric& m : report.metrics()) {
    const MetricSpec* spec = config.trace ? Find(kPerLayer, m.name)
                                          : Find(kEndToEnd, m.name);
    if (spec == nullptr || m.unit != spec->unit) {
      std::fprintf(stderr, "perfbench: undocumented metric %s [%s]\n",
                   m.name.c_str(), m.unit.c_str());
      return 2;
    }
  }
  const auto lookup = [&](const char* name, double* value) {
    for (const perfbench::Metric& m : report.metrics()) {
      if (m.name == name) {
        *value = m.value;
        return true;
      }
    }
    return false;
  };
  std::fprintf(stderr, "perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n",
               config.workload.c_str(), config.seed, config.seconds,
               config.trace ? 1 : 0);
  if (config.trace) {
    for (const MetricSpec& s : kPerLayer) {
      double v = 0.0;
      lookup(s.name, &v);
      emit(s.name, v, s.unit);
    }
  } else {
    for (const MetricSpec& s : kEndToEnd) {
      double v = 0.0;
      if (!lookup(s.name, &v) && report.correct()) {
        report.Fail(std::string("metric ") + s.name + " was not measured", 0);
      }
      emit(s.name, v, s.unit);
    }
  }
  json += "}";
  for (const std::string& p : report.problems()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              report.correct() ? "true" : "false", report.attempted,
              report.failed, json.c_str());
  return report.correct() ? 0 : 1;
}
