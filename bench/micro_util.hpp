// Harness shared by the google-benchmark micro suites (micro_sched,
// micro_simcore): runs the registered benchmarks under the obs layer and
// writes the BENCH_<name>.json perf report.
//
// Replaces BENCHMARK_MAIN() with
//
//   int main(int argc, char** argv) {
//     return bench::run_micro_suite("micro_sched", argc, argv);
//   }
//
// which accepts, in addition to every --benchmark_* flag,
//   --trace FILE        write a Chrome trace of the benchmark bodies'
//                       span emissions (the instrumented sched/simcore
//                       layers emit through the ambient obs context)
//   --trace-normalize   per-track ordinal timestamps (diffable traces)
//   --metrics           print the metrics registry after the run
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <optional>
#include <vector>

#include "bench_util.hpp"
#include "mtsched/obs/chrome_trace.hpp"
#include "mtsched/obs/metrics.hpp"
#include "mtsched/obs/trace.hpp"

namespace bench {

/// ConsoleReporter that also captures every per-iteration run into the
/// ambient bench Reporter as a BenchReport throughput entry.
class CaptureReporter final : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(Reporter& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      mtsched::obs::BenchReport::Throughput t;
      t.name = run.benchmark_name();
      t.seconds_per_iteration =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        t.items_per_second = static_cast<double>(it->second);
      }
      report_.add_throughput(std::move(t));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  Reporter& report_;
};

inline int run_micro_suite(const std::string& name, int argc, char** argv) {
  // Peel our obs flags off argv before google-benchmark sees it (it
  // rejects flags it does not know).
  std::string trace_path;
  bool normalize = false;
  bool metrics = false;
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of =
        [&](const std::string& flag) -> std::optional<std::string> {
      if (arg.rfind(flag + "=", 0) == 0) return arg.substr(flag.size() + 1);
      if (arg == flag && i + 1 < argc) return std::string(argv[++i]);
      return std::nullopt;
    };
    if (const auto v = value_of("--trace")) {
      trace_path = *v;
    } else if (arg == "--trace-normalize") {
      normalize = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else {
      rest.push_back(argv[i]);
    }
  }

  Reporter report(name);
  int rest_argc = static_cast<int>(rest.size());
  benchmark::Initialize(&rest_argc, rest.data());
  if (benchmark::ReportUnrecognizedArguments(rest_argc, rest.data())) {
    return 1;
  }

  mtsched::obs::Tracer tracer;
  mtsched::obs::MetricsRegistry registry;
  const bool tracing = !trace_path.empty();
  std::optional<mtsched::obs::ScopedContext> obs_ctx;
  if (tracing || metrics) {
    obs_ctx.emplace(tracing ? tracer.root() : mtsched::obs::Track{},
                    metrics ? &registry : nullptr);
  }

  CaptureReporter console(report);
  benchmark::RunSpecifiedBenchmarks(&console);
  obs_ctx.reset();

  if (tracing) {
    mtsched::obs::ChromeTraceOptions opt;
    opt.normalize_timestamps = normalize;
    std::ofstream f(trace_path, std::ios::binary);
    if (!f) {
      std::cerr << "cannot open --trace file '" << trace_path << "'\n";
      return 1;
    }
    f << mtsched::obs::to_chrome_json(tracer, opt);
    report.set("trace.events", static_cast<double>(tracer.num_events()));
  }
  if (metrics) {
    std::cout << registry.render();
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
