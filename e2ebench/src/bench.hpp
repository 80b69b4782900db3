// Shared pieces of the end-to-end benchmark: options, the result record
// every workload fills, and the statistics the reported metrics rest on.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "mtsched/core/rng.hpp"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::string out_dir;    ///< where the traced run writes its trace file
};

/// Everything one run reports. `end_to_end` is printed with --trace 0,
/// `per_layer` with --trace 1; `notes` are human-readable lines printed
/// before the result.
struct Outcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;  ///< operations tried, checks included
  std::uint64_t failed = 0;     ///< non-ok, refused, timed out or wrong
  std::uint64_t checks = 0;     ///< correctness comparisons made
  std::uint64_t mismatches = 0; ///< correctness comparisons that failed
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records one correctness comparison.
  void check(bool ok) {
    ++checks;
    ++attempted;
    if (!ok) {
      ++mismatches;
      ++failed;
    }
  }
};

/// Deterministic sub-seed `stream` of the workload seed: every generated
/// input derives from the workload seed through this, nothing else.
inline std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return mtsched::core::hash_mix(seed, stream + 0x5eedull);
}

/// printf-style formatting of one note line.
template <class... Args>
std::string fmt(const char* format, Args... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

// --- statistics -------------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 for
/// an empty one.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size(), static_cast<std::size_t>(rank)) - 1;
  return v[idx];
}

/// Median, averaging the middle pair of an even-sized sample.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest of the percentiles {50, 90, 99, 99.9} that has at least
/// ten samples beyond it in a sample of `n`; 0 when even the median has
/// fewer (n < 20).
inline double tail_level(std::size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9) best = p;
  }
  return best;
}

/// Open-loop latency: from when the request was *due* to be sent to when
/// its response arrived, so a stall of the generator or the server is
/// charged to every request scheduled behind it.
inline double latency_from_due(double due, double done) { return done - due; }

/// How late the generator sent a request relative to its schedule (never
/// negative: an early wake-up waits for the due time).
inline double lateness(double due, double sent) {
  return std::max(0.0, sent - due);
}

/// True when latencies (in due order) show a growing backlog: the median
/// of the last fifth exceeds twice the median of the first fifth and by
/// more than `min_growth` seconds. A stable queue keeps its latency level
/// over a step; an overloaded one grows it with every request.
inline bool backlog_growing(const std::vector<double>& latencies,
                            double min_growth = 1e-3) {
  const std::size_t n = latencies.size();
  if (n < 10) return false;
  const std::size_t k = n / 5;
  const double first =
      median(std::vector<double>(latencies.begin(), latencies.begin() + k));
  const double last =
      median(std::vector<double>(latencies.end() - k, latencies.end()));
  return last > 2.0 * first && last - first > min_growth;
}

// --- set-up ------------------------------------------------------------

/// Set-up repetitions per run; set-up time is reported as their median.
inline constexpr int kSetupReps = 5;

/// Builds a workload fixture kSetupReps times, each from scratch after
/// tearing the previous one down (untimed), keeps the last one and
/// reports the median build time as setup_s.
template <class Make>
auto timed_setup(Make make, Outcome& out) {
  std::vector<double> times;
  decltype(make()) fixture{};
  for (int i = 0; i < kSetupReps; ++i) {
    fixture = decltype(make()){};
    const auto t = Clock::now();
    fixture = make();
    times.push_back(seconds_since(t));
  }
  out.e2e("setup_s", median(times), "s");
  return fixture;
}

}  // namespace e2ebench
