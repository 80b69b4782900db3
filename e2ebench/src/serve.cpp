// serve_mixed: open-loop traffic over loopback sockets to an in-process
// exp::RpcServer + exp::Service configured as `mtsched_cli serve
// --threads 2`.
//
// The generator is this process: the calling thread sends on a fixed
// schedule, one receiver thread reads the responses of all kConns
// connections. Requests are 10-task DAGs with a fresh exp_seed each: 90%
// come from a hot pool of 16 DAGs x {HCPA, MCPA} that the warm-up put in
// the schedule cache (hits), 10% are a fresh DAG each (a miss and an
// insert). The offered rate steps through kLadder, and closed-loop
// segments with a bounded window measure the sustained capacity.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "layers.hpp"
#include "mtsched/core/net.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/rpc.hpp"
#include "mtsched/exp/server.hpp"
#include "mtsched/exp/service.hpp"
#include "mtsched/models/factory.hpp"
#include "mtsched/obs/metrics.hpp"
#include "mtsched/obs/sink.hpp"
#include "workloads.hpp"

namespace e2ebench {

namespace exp = mtsched::exp;
namespace net = mtsched::core::net;
namespace obs = mtsched::obs;

namespace {

constexpr int kConns = 4;
constexpr int kHotDags = 16;
constexpr int kHotKeys = 2 * kHotDags;  // x {HCPA, MCPA}
constexpr double kHotShare = 0.9;
constexpr double kLadder[] = {1000, 2000, 3000};  // req/s
constexpr int kRounds = 4;
constexpr double kReportRate = 2000;   // latency_p50_ms is taken here
constexpr double kWindowS = 0.25;      // statistics window, seconds
constexpr double kLimitP99 = 5e-3;     // the latency limit of max_rps
constexpr int kWindow = 8;             // closed-loop requests per conn
constexpr int kLayerRequests = 1000;   // requests of the traced pass
constexpr int kServerProbes = 300;     // round trips of the server probe
/// Seed stream offset of the fresh DAGs, apart from the hot pool's.
constexpr std::uint64_t kFreshStream = 1ull << 32;

// --- request plan -------------------------------------------------------

/// Request `idx` of the run's stream, drawn from the workload seed only.
struct Plan {
  int hot = -1;  ///< hot-pool key, or -1 for a fresh DAG
  std::uint64_t exp_seed = 0;
};

Plan plan(std::uint64_t seed, std::uint64_t idx) {
  Plan p;
  if (mtsched::core::unit_hash(seed, idx, 1) < kHotShare) {
    p.hot = static_cast<int>(mtsched::core::hash_mix(seed, idx, 2) % kHotKeys);
  }
  p.exp_seed = mtsched::core::hash_mix(seed, idx, 3);
  return p;
}

/// A 10-task Table I DAG: grid cell `cell` (of 54) with generator seed
/// `dag_seed`.
std::string small_dag(int cell, std::uint64_t dag_seed) {
  auto params = mtsched::dag::table1_grid(1, 10)[static_cast<std::size_t>(cell % 54)];
  params.seed = dag_seed;
  return mtsched::dag::to_text(mtsched::dag::generate_random_dag(params).graph);
}

exp::ScheduleRequest make_request(std::string dag_text, bool mcpa,
                                  std::uint64_t exp_seed) {
  exp::ScheduleRequest req;
  req.dag_text = std::move(dag_text);
  req.algorithm = mcpa ? "MCPA" : "HCPA";
  req.model = mtsched::models::ModelSpec::parse("profile");
  req.exp_seed = exp_seed;
  req.execute = true;
  return req;
}

/// The request stream: hot keys reuse the pool's DAG texts, fresh
/// requests generate a new DAG from (seed, idx).
class Traffic {
 public:
  explicit Traffic(std::uint64_t seed) : seed_(seed) {
    for (int d = 0; d < kHotDags; ++d) {
      hot_text_.push_back(small_dag(3 * d, derive(seed, 200 + d)));
    }
  }

  exp::ScheduleRequest request(std::uint64_t idx) const {
    const Plan p = plan(seed_, idx);
    if (p.hot >= 0) {
      return make_request(hot_text_[static_cast<std::size_t>(p.hot / 2)],
                          p.hot % 2 == 1, p.exp_seed);
    }
    return make_request(
        small_dag(static_cast<int>(idx % 54), derive(seed_, kFreshStream + idx)),
        idx % 2 == 1, p.exp_seed);
  }

  /// Hot key `k` once, for warming the cache.
  exp::ScheduleRequest hot_request(int k) const {
    return make_request(hot_text_[static_cast<std::size_t>(k / 2)], k % 2 == 1,
                        derive(seed_, 300 + static_cast<std::uint64_t>(k)));
  }

  int hot_key(std::uint64_t idx) const { return plan(seed_, idx).hot; }

 private:
  std::uint64_t seed_;
  std::vector<std::string> hot_text_;
};

// --- fixture ------------------------------------------------------------

/// Lab, service, server with its event-loop thread, and the generator's
/// connections.
class ServeFixture {
 public:
  ServeFixture(std::uint64_t seed, bool with_metrics)
      : lab_(std::make_unique<exp::Lab>()),
        sink_(nullptr, with_metrics ? &metrics_ : nullptr),
        traffic_(seed) {
    exp::ServiceConfig cfg;
    cfg.threads = 2;
    cfg.queue_limit = 64;
    service_ = std::make_unique<exp::Service>(*lab_, cfg, &sink_);
    server_ = std::make_unique<exp::RpcServer>(*service_);
    loop_ = std::thread([this] {
      try {
        server_->serve();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: server loop failed: %s\n", e.what());
      }
    });
    try {
      for (int c = 0; c < kConns; ++c) {
        conns_.push_back(net::connect_to("127.0.0.1", server_->port()));
        net::write_frame(conns_.back(), exp::encode_ping());
        const auto pong = net::read_frame(conns_.back());
        if (!pong || !exp::parse_response(*pong).ok()) {
          throw std::runtime_error("server did not answer the ping");
        }
      }
    } catch (...) {
      stop();
      throw;
    }
  }

  ~ServeFixture() { stop(); }

  ServeFixture(const ServeFixture&) = delete;
  ServeFixture& operator=(const ServeFixture&) = delete;

  const exp::Lab& lab() const { return *lab_; }
  exp::Service& service() { return *service_; }
  const exp::RpcServer& server() const { return *server_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const Traffic& traffic() const { return traffic_; }
  const net::Socket& conn(int c) const {
    return conns_[static_cast<std::size_t>(c)];
  }

 private:
  /// Closes the connections, stops the server loop and joins it.
  void stop() {
    conns_.clear();
    server_->shutdown();
    loop_.join();
  }

  std::unique_ptr<exp::Lab> lab_;
  obs::MetricsRegistry metrics_;
  obs::BasicSink sink_;
  Traffic traffic_;
  std::unique_ptr<exp::Service> service_;
  std::unique_ptr<exp::RpcServer> server_;
  std::thread loop_;
  std::vector<net::Socket> conns_;
};

// --- response bookkeeping ------------------------------------------------

/// Ok responses kept for the correctness check: every fresh request and
/// the first response of every hot key (a non-ok response already counts
/// as failed). Receiver-thread state only.
struct Samples {
  std::vector<std::pair<std::uint64_t, std::string>> kept;
  std::unordered_set<int> hot_seen;

  /// Records the response to request `idx`; returns whether it was ok.
  bool offer(const Traffic& t, std::uint64_t idx, const std::string& bytes) {
    if (!exp::parse_response(bytes).ok()) return false;
    const int hot = t.hot_key(idx);
    if (hot < 0 || hot_seen.insert(hot).second) kept.emplace_back(idx, bytes);
    return true;
  }
};

/// Waits up to `timeout_ms` for any connection to become readable;
/// returns the readable connection indices.
std::vector<int> readable(const ServeFixture& f, int timeout_ms) {
  pollfd fds[kConns];
  for (int c = 0; c < kConns; ++c) fds[c] = {f.conn(c).fd(), POLLIN, 0};
  std::vector<int> out;
  if (::poll(fds, kConns, timeout_ms) <= 0) return out;
  for (int c = 0; c < kConns; ++c) {
    if (fds[c].revents != 0) out.push_back(c);
  }
  return out;
}

/// One offered rate of the ladder, accumulated over its segments.
struct RateStats {
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t failed = 0;          ///< non-ok, refused or never answered
  std::vector<double> latency;     ///< from the due time, per request
  std::vector<double> late;        ///< generator lateness, per request
  std::vector<double> window_p50;  ///< p50 of each kWindowS window
  bool backlog = false;            ///< latency grew over some segment

  /// The rate's p50: the median of its windows' p50s, so a burst of
  /// machine noise spoils a few windows, not the figure.
  double p50() const { return median(window_p50); }
  /// p99 over all segments; 0 below the 1000 samples it needs.
  double p99() const {
    return tail_level(latency.size()) >= 99 ? percentile(latency, 99) : 0.0;
  }
  bool meets_limit() const {
    return failed == 0 && !backlog && p99() > 0.0 && p99() <= kLimitP99;
  }
};

/// One open-loop segment at `acc.rate` for `duration` seconds: request i
/// is due at t0 + i/rate on connection i % kConns, and its latency is
/// measured from the due time.
void open_loop_segment(ServeFixture& f, double duration,
                       std::uint64_t& next_idx, Samples& samples,
                       RateStats& acc) {
  const double rate = acc.rate;
  const std::size_t n = static_cast<std::size_t>(rate * duration);
  const std::uint64_t base = next_idx;
  next_idx += n;
  std::vector<double> done(n, -1.0), late(n, 0.0);
  std::vector<char> ok(n, 0);
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](std::size_t i) { return static_cast<double>(i) / rate; };

  std::atomic<bool> sending_failed{false};
  // Requests the receiver never saw answered count as failed below, so
  // a receive error ends the receiver without losing the failure.
  std::thread receiver([&] {
    std::size_t got[kConns] = {};
    std::size_t received = 0;
    const double give_up = duration + 10.0;
    try {
      while (received < n && !sending_failed.load() &&
             seconds_since(t0) < give_up) {
        for (const int c : readable(f, 50)) {
          const auto frame = net::read_frame(f.conn(c));
          if (!frame) return;
          const std::size_t i = static_cast<std::size_t>(c) +
                                kConns * got[c]++;
          if (i >= n) return;
          done[i] = seconds_since(t0);
          ok[i] = samples.offer(f.traffic(), base + i, *frame) ? 1 : 0;
          ++received;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "e2ebench: receiver stopped: %s\n", e.what());
    }
  });
  try {
    for (std::size_t i = 0; i < n; ++i) {
      const std::string payload =
          exp::encode_request(f.traffic().request(base + i));
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due(i))));
      late[i] = lateness(due(i), seconds_since(t0));
      net::write_frame(f.conn(static_cast<int>(i % kConns)), payload);
    }
  } catch (...) {
    sending_failed = true;
    receiver.join();
    throw;
  }
  receiver.join();

  std::vector<double> lat;
  lat.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (done[i] < 0.0 || ok[i] == 0) {
      ++acc.failed;
      lat.push_back(1e9);  // a failed request misses any latency limit
    } else {
      lat.push_back(latency_from_due(due(i), done[i]));
    }
  }
  const std::size_t per_window =
      std::max<std::size_t>(1, static_cast<std::size_t>(rate * kWindowS));
  for (std::size_t b = 0; b + per_window <= n; b += per_window) {
    acc.window_p50.push_back(percentile(
        std::vector<double>(lat.begin() + static_cast<std::ptrdiff_t>(b),
                            lat.begin() +
                                static_cast<std::ptrdiff_t>(b + per_window)),
        50));
  }
  acc.backlog = acc.backlog || backlog_growing(lat);
  acc.sent += n;
  acc.latency.insert(acc.latency.end(), lat.begin(), lat.end());
  acc.late.insert(acc.late.end(), late.begin(), late.end());
}

/// One closed-loop segment: every connection keeps kWindow requests
/// outstanding (kConns * kWindow stays under the admission limit, so
/// nothing is refused) for `duration` seconds. Appends the completed
/// requests per second of each kWindowS window after the first (the
/// ramp-up) to `window_rates`.
void closed_loop_segment(ServeFixture& f, double duration,
                         std::uint64_t& next_idx, Samples& samples,
                         Outcome& out, std::vector<double>& window_rates) {
  std::vector<std::uint64_t> queue[kConns];
  std::size_t head[kConns] = {};
  auto send = [&](int c) {
    const std::uint64_t idx = next_idx++;
    net::write_frame(f.conn(c), exp::encode_request(f.traffic().request(idx)));
    queue[c].push_back(idx);
    ++out.attempted;
  };
  const auto t0 = Clock::now();
  for (int c = 0; c < kConns; ++c) {
    for (int w = 0; w < kWindow; ++w) send(c);
  }
  std::size_t outstanding = kConns * kWindow;
  std::vector<double> per_window(
      static_cast<std::size_t>(duration / kWindowS), 0.0);
  while (outstanding > 0 && seconds_since(t0) < duration + 10.0) {
    for (const int c : readable(f, 50)) {
      const auto frame = net::read_frame(f.conn(c));
      if (!frame) throw std::runtime_error("server closed a connection");
      const std::uint64_t idx = queue[c][head[c]++];
      --outstanding;
      if (!samples.offer(f.traffic(), idx, *frame)) ++out.failed;
      const double t = seconds_since(t0);
      const auto w = static_cast<std::size_t>(t / kWindowS);
      if (w < per_window.size()) per_window[w] += 1.0 / kWindowS;
      if (t < duration) {
        send(c);
        ++outstanding;
      }
    }
  }
  out.failed += outstanding;
  if (per_window.size() > 1) {
    window_rates.insert(window_rates.end(), per_window.begin() + 1,
                        per_window.end());
  }
}

}  // namespace

Outcome run_serve_mixed(const Options& opt) {
  Outcome out;
  auto f = timed_setup(
      [&] { return std::make_unique<ServeFixture>(opt.seed, opt.trace); }, out);

  // Warm-up (untimed): every hot key once, so ladder hot requests hit.
  Samples samples;
  std::vector<std::pair<exp::ScheduleRequest, std::string>> warm;
  for (int k = 0; k < kHotKeys; ++k) {
    const auto req = f->traffic().hot_request(k);
    net::write_frame(f->conn(0), exp::encode_request(req));
    const auto frame = net::read_frame(f->conn(0));
    if (!frame) throw std::runtime_error("server closed during warm-up");
    warm.emplace_back(req, *frame);
  }

  // The measured time is spread over kRounds rounds so that a slow
  // spell of the machine touches few of the windows the medians are
  // taken over. Each round runs the reported rate (30% of the time in
  // total) and a closed-loop segment (30%); the other ladder rates run
  // once each (8% of the time each).
  std::vector<RateStats> ladder;
  for (const double rate : kLadder) {
    ladder.emplace_back();
    ladder.back().rate = rate;
  }
  RateStats* report = nullptr;
  std::vector<RateStats*> others;
  for (auto& r : ladder) {
    if (r.rate == kReportRate) {
      report = &r;
    } else {
      others.push_back(&r);
    }
  }
  std::uint64_t next_idx = 0;
  std::vector<double> window_rates;
  for (int round = 0; round < kRounds; ++round) {
    open_loop_segment(*f, std::max(0.3 * opt.seconds / kRounds, 2 * kWindowS),
                      next_idx, samples, *report);
    if (!opt.trace) {
      // At least three windows: the first one is the ramp-up.
      closed_loop_segment(*f,
                          std::max(0.3 * opt.seconds / kRounds, 3 * kWindowS),
                          next_idx, samples, out, window_rates);
    }
    if (static_cast<std::size_t>(round) < others.size()) {
      open_loop_segment(*f, 0.08 * opt.seconds, next_idx, samples,
                        *others[static_cast<std::size_t>(round)]);
    }
  }
  double max_rps = 0.0;
  bool limit_held = true;
  for (const auto& r : ladder) {
    out.attempted += r.sent;
    out.failed += r.failed;
    limit_held = limit_held && r.meets_limit();
    if (limit_held) max_rps = r.rate;
    out.notes.push_back(fmt("ladder %5.0f req/s: n=%zu p50 %.3f ms, p99 "
                            "%.3f ms, generator late p99 %.3f ms, backlog "
                            "growing %d, failed %zu",
                            r.rate, r.sent, r.p50() * 1e3, r.p99() * 1e3,
                            percentile(r.late, 99) * 1e3,
                            r.backlog ? 1 : 0, r.failed));
  }
  const double capacity = median(window_rates);
  if (!opt.trace) {
    out.notes.push_back(fmt("closed loop (%d conns x %d outstanding): "
                            "%.1f req/s (median of %zu windows)",
                            kConns, kWindow, capacity, window_rates.size()));
  }
  const auto stats = f->server().stats();
  const auto batch = f->service().batch_stats();
  const double batch_mean =
      batch.batches > 0 ? static_cast<double>(batch.batched_requests) /
                              static_cast<double>(batch.batches)
                        : 0.0;

  // Correctness: every kept response must be byte-identical to a local
  // exp::Session::run of the same request.
  {
    const exp::Session local(f->lab());
    for (const auto& [req, bytes] : warm) {
      out.check(exp::encode_response(local.run(req)) == bytes);
    }
    for (const auto& [idx, bytes] : samples.kept) {
      out.check(exp::encode_response(local.run(f->traffic().request(idx))) ==
                bytes);
    }
  }
  out.notes.push_back(fmt("serve_p50_ms = %.4f ms, serve_p99_ms = %.4f ms at "
                          "%.0f req/s; serve_max_rps = %.0f req/s (p99 <= "
                          "%.0f ms)",
                          report->p50() * 1e3, report->p99() * 1e3, kReportRate,
                          max_rps, kLimitP99 * 1e3));
  out.notes.push_back(fmt("server: %.0f requests, %.0f rejected, %.0f "
                          "backpressure pauses, %.0f batches (mean %.2f)",
                          static_cast<double>(stats.requests),
                          static_cast<double>(stats.rejected),
                          static_cast<double>(stats.backpressure_pauses),
                          static_cast<double>(batch.batches), batch_mean));

  if (!opt.trace) {
    out.e2e("latency_p50_ms", report->p50() * 1e3, "ms");
    out.e2e("throughput_per_s", capacity, "1/s");
    return out;
  }

  std::vector<double> late;
  for (const auto& r : ladder) late.insert(late.end(), r.late.begin(), r.late.end());
  const auto& session = f->service().session();
  const auto wait = f->metrics().histogram("service.latency_seconds").summary();
  out.layer("serve.p99_ms", report->p99() * 1e3, "ms");
  out.layer("serve.max_rps", max_rps, "req/s");
  out.layer("exp.cache_hit_ratio",
            static_cast<double>(session.cache_hits()) /
                static_cast<double>(session.cache_hits() +
                                    session.cache_misses()),
            "fraction");
  out.layer("exp.service_wait_us_p50", wait.p50 * 1e6, "us");
  out.layer("exp.service_wait_us_p95", wait.p95 * 1e6, "us");
  out.layer("exp.batch_mean", batch_mean, "count");
  out.layer("exp.rejected_share",
            stats.requests > 0 ? static_cast<double>(stats.rejected) /
                                     static_cast<double>(stats.requests)
                               : 0.0,
            "fraction");
  out.layer("exp.backpressure_pauses",
            static_cast<double>(stats.backpressure_pauses), "count");
  out.layer("loadgen.late_p99_ms", percentile(late, 99) * 1e3, "ms");

  // Server overhead on an idle server: an rpc round trip minus an
  // in-process Service::call of the same (hot, cached) request.
  {
    std::vector<double> rpc_s, call_s;
    for (int i = 0; i < kServerProbes; ++i) {
      const auto req = f->traffic().hot_request(i % kHotKeys);
      const auto t = Clock::now();
      net::write_frame(f->conn(0), exp::encode_request(req));
      const auto frame = net::read_frame(f->conn(0));
      rpc_s.push_back(seconds_since(t));
      const auto t2 = Clock::now();
      const auto resp = f->service().call(req);
      call_s.push_back(seconds_since(t2));
      out.check(frame && resp.ok() && exp::encode_response(resp) == *frame);
    }
    out.layer("exp.server_us", (median(rpc_s) - median(call_s)) * 1e6, "us");
  }

  // Traced pass over the head of the request stream, with the hot pool
  // already cached as it is on the server.
  std::vector<exp::ScheduleRequest> prewarm, requests;
  for (const auto& w : warm) prewarm.push_back(w.first);
  for (std::uint64_t i = 0; i < kLayerRequests; ++i) {
    requests.push_back(f->traffic().request(i));
  }
  layer_pass(f->lab(), prewarm, requests,
             opt.out_dir + "/e2e_trace_serve_mixed.json", out);
  return out;
}

}  // namespace e2ebench
