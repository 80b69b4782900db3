// Self-tests of the benchmark's own statistics (`e2ebench --self-test`).
#include <cstdio>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int run_self_tests() {
  failures = 0;

  // Nearest-rank percentiles and the median.
  const auto v100 = ramp(100);
  expect(percentile(v100, 50) == 50 && percentile(v100, 99) == 99 &&
             percentile(v100, 100) == 100 && percentile(v100, 0) == 1,
         "nearest-rank percentile of 1..100");
  expect(percentile({7.0}, 99) == 7.0 && percentile({}, 50) == 0.0,
         "percentile of one sample and of none");
  expect(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 3.0, 2.0}) == 2.5,
         "median of odd and even samples");

  // The reported tail is the highest percentile with >= 10 samples beyond.
  expect(tail_level(19) == 0.0, "no percentile with 19 samples");
  expect(tail_level(20) == 50.0, "p50 needs 20 samples");
  expect(tail_level(999) == 90.0, "999 samples support p90, not p99");
  expect(tail_level(1000) == 99.0, "1000 samples support p99");
  expect(tail_level(10000) == 99.9, "10000 samples support p99.9");

  // Latency is timed from the due time: a 10 ms generator stall is
  // charged to the requests that were due during it.
  {
    const double rate = 1000.0;
    const double stall_until = 0.010;  // nothing sent before 10 ms
    const double service = 0.0002;
    std::vector<double> from_due, from_send, late;
    for (int i = 0; i < 20; ++i) {
      const double due = i / rate;
      const double sent = std::max(due, stall_until);
      const double done = sent + service;
      from_due.push_back(latency_from_due(due, done));
      from_send.push_back(done - sent);
      late.push_back(lateness(due, sent));
    }
    expect(percentile(from_send, 100) < 0.0003,
           "latency from send time hides the stall");
    expect(from_due.front() > 0.0100 && percentile(from_due, 50) > 0.0002,
           "latency from due time shows the stall");
    expect(late.front() == stall_until && late.back() == 0.0,
           "generator lateness is the send delay behind schedule");
    expect(lateness(0.005, 0.004) == 0.0, "an early send is not late");
  }

  // Backlog growth: flat or noisy-flat latency is stable, a queue that
  // grows with every request is not.
  {
    std::vector<double> flat(1000, 0.0003), noisy, growing, spike;
    for (int i = 0; i < 1000; ++i) {
      noisy.push_back(0.0003 + (i % 7 == 0 ? 0.002 : 0.0));
      growing.push_back(0.0003 + 0.00005 * i);
      spike.push_back(i == 990 ? 0.5 : 0.0003);
    }
    expect(!backlog_growing(flat), "flat latency: no backlog");
    expect(!backlog_growing(noisy), "periodic slow requests: no backlog");
    expect(!backlog_growing(spike), "one late outlier: no backlog");
    expect(backlog_growing(growing), "latency growing per request: backlog");
    expect(!backlog_growing({0.1, 0.2}), "too few samples: no verdict");
  }

  std::printf("%d self-test failure(s)\n", failures);
  return failures;
}

}  // namespace e2ebench
