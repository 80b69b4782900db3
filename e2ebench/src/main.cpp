// e2ebench: the end-to-end, layer-by-layer benchmark of mtsched.
//
//   e2ebench --workload paper_campaign|large_dag|serve_mixed --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//   e2ebench --self-test
//
// Prints human-readable notes, a metric table, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

using e2ebench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every run reports every metric of its kind, in this order (the order
// of BENCHMARK.json); a per-layer metric the workload does not exercise
// reads 0. Metrics a workload reports beyond these (serve_mixed's
// service and load-generator figures) follow them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_ms", "ms"},
    {"throughput_per_s", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"dag.parse_ns_per_task", "ns/task"},
    {"dag.canon_ns_per_task", "ns/task"},
    {"sched.allocate_ms", "ms"},
    {"sched.allocate_share", "fraction"},
    {"sched.allocate_growth", "ratio"},
    {"sched.map_ms", "ms"},
    {"sched.map_share", "fraction"},
    {"sim.simulate_us_per_task", "us/task"},
    {"sim.simulate_share", "fraction"},
    {"tgrid.execute_us_per_task", "us/task"},
    {"tgrid.execute_share", "fraction"},
    {"exp.session_self_us", "us"},
    {"exp.cache_hit_ratio", "fraction"},
    {"exp.campaign_parallel_eff", "fraction"},
    {"exp.rpc_codec_us", "us"},
    {"bench.trace_overhead", "ratio"},
};

/// Peak resident set (VmHWM) of this process in MB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The reported value of `def` (0 when the workload did not set it);
/// throws when a set value carries another unit than the definition.
double value_of(const std::vector<Outcome::Metric>& metrics,
                const MetricDef& def, bool required) {
  for (const auto& m : metrics) {
    if (m.name != def.name) continue;
    if (m.unit != def.unit) {
      throw std::logic_error(std::string("unit mismatch for ") + def.name);
    }
    return m.value;
  }
  if (required) {
    throw std::logic_error(std::string("workload did not report ") + def.name);
  }
  return 0.0;
}

void print_result(const Outcome& out, bool trace) {
  for (const auto& n : out.notes) std::cout << n << "\n";
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": "
       << (out.checks > 0 && out.mismatches == 0 ? "true" : "false")
       << ", \"attempted\": " << out.attempted << ", \"failed\": "
       << out.failed << ", \"metrics\": {";
  bool first = true;
  auto put = [&](const std::string& name, double v, const std::string& unit) {
    std::printf("%-28s %16.6g %s\n", name.c_str(), v, unit.c_str());
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << v
         << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  auto emit = [&](const auto& defs, const std::vector<Outcome::Metric>& set,
                  bool required) {
    for (const MetricDef& def : defs) {
      put(def.name, value_of(set, def, required), def.unit);
    }
    for (const auto& m : set) {
      const bool listed = std::any_of(
          std::begin(defs), std::end(defs),
          [&](const MetricDef& d) { return m.name == d.name; });
      if (!listed) put(m.name, m.value, m.unit);
    }
  };
  std::printf("correctness checks: %llu made, %llu mismatched; %llu of %llu "
              "operations failed\n",
              static_cast<unsigned long long>(out.checks),
              static_cast<unsigned long long>(out.mismatches),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  if (trace) {
    emit(kPerLayer, out.per_layer, false);
  } else {
    emit(kEndToEnd, out.end_to_end, true);
  }
  std::fflush(stdout);
  json << "}}";
  std::cout << json.str() << std::endl;
}

int usage() {
  std::cerr << "usage: e2ebench --workload paper_campaign|large_dag|"
               "serve_mixed --seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       e2ebench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::Options opt;
  opt.out_dir = ".";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--self-test") return e2ebench::run_self_tests() == 0 ? 0 : 1;
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v != "0";
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else {
        return usage();
      }
    }
    if (opt.seconds <= 0) return usage();

    Outcome out;
    if (opt.workload == "paper_campaign") {
      out = e2ebench::run_paper_campaign(opt);
    } else if (opt.workload == "large_dag") {
      out = e2ebench::run_large_dag(opt);
    } else if (opt.workload == "serve_mixed") {
      out = e2ebench::run_serve_mixed(opt);
    } else {
      return usage();
    }
    out.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    print_result(out, opt.trace);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
