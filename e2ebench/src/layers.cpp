#include "layers.hpp"

#include <cstdio>
#include <fstream>

#include "mtsched/dag/export.hpp"
#include "mtsched/exp/rpc.hpp"
#include "mtsched/models/factory.hpp"
#include "mtsched/obs/analysis.hpp"
#include "mtsched/obs/chrome_trace.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"

namespace e2ebench {

namespace exp = mtsched::exp;
namespace obs = mtsched::obs;

namespace {

/// FNV-1a over the canonical DAG text, as exp::Session keys its cache.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One pipeline layer as the replay names it: (category, name).
struct LayerSpan {
  const char* category;
  const char* name;
};

constexpr LayerSpan kLayers[] = {
    {"exp", "encode_request"}, {"exp", "parse_request"},
    {"dag", "from_text"},      {"dag", "to_text"},
    {"sched", "allocate"},     {"sched", "map"},
    {"sim", "simulate"},       {"tgrid", "execute"},
    {"exp", "encode_response"}, {"exp", "parse_response"},
};

}  // namespace

std::string Replayer::run(const exp::ScheduleRequest& req, obs::Track track) {
  const obs::Span request_span(track, "exp", "request");
  std::string wire;
  {
    const obs::Span s(track, "exp", "encode_request");
    wire = exp::encode_request(req);
  }
  exp::RpcRequest decoded;
  {
    const obs::Span s(track, "exp", "parse_request");
    decoded = exp::parse_request(wire);
  }
  const exp::ScheduleRequest& r = decoded.schedule;

  // The response echo and validation order of exp::Session::serve.
  exp::ScheduleResponse resp;
  resp.algorithm = r.algorithm;
  resp.exp_seed = r.exp_seed;
  resp.model = r.model.name();
  const exp::Lab& lab = lab_;
  resp.platform = lab.spec().name;
  const mtsched::models::CostModel& model = lab.model(r.model);
  const auto allocator = mtsched::sched::make_allocator(r.algorithm);
  const int P = lab.spec().num_nodes;

  mtsched::dag::Dag g;
  {
    const obs::Span s(track, "dag", "from_text");
    g = mtsched::dag::from_text(r.dag_text);
  }
  parsed_tasks_ += g.num_tasks();
  std::string key;
  {
    const obs::Span s(track, "dag", "to_text");
    key = std::to_string(fnv1a(mtsched::dag::to_text(g)));
  }
  key += "/" + resp.model + "/" + r.algorithm + "/" +
         mtsched::sched::mapping_name(r.mapping) + "/" + resp.platform;

  auto& memo = memo_[key];
  if (memo == nullptr) {
    ++misses_;
    scheduled_tasks_ += g.num_tasks();
    auto m = std::make_shared<exp::ScheduleMemo>();
    const mtsched::models::SchedCostAdapter cost(model);
    std::vector<int> sizes;
    {
      const obs::Span s(track, "sched", "allocate");
      sizes = allocator->allocate(g, cost, P);
    }
    {
      const obs::Span s(track, "sched", "map");
      m->schedule =
          mtsched::sched::ListMapper(r.mapping, lab.spec()).map(g, sizes, cost, P);
    }
    {
      const obs::Span s(track, "sim", "simulate");
      m->makespan_sim = mtsched::sim::Simulator(model).makespan(g, m->schedule);
    }
    memo = std::move(m);
  }
  resp.est_makespan = memo->schedule.est_makespan;
  resp.makespan_sim = memo->makespan_sim;
  resp.allocation = memo->schedule.allocation();
  if (r.execute) {
    const obs::Span s(track, "tgrid", "execute");
    resp.makespan_exp = lab.rig().makespan(g, memo->schedule, r.exp_seed);
    resp.executed = true;
    executed_tasks_ += g.num_tasks();
  }
  std::string bytes;
  {
    const obs::Span s(track, "exp", "encode_response");
    bytes = exp::encode_response(resp);
  }
  {
    // The client's decode closes the round trip. A decode that loses
    // the schedule empties the result, which fails the caller's byte
    // comparison against the reference.
    const obs::Span s(track, "exp", "parse_response");
    const auto back = exp::parse_response(bytes);
    if (back.allocation != resp.allocation ||
        back.makespan_exp != resp.makespan_exp) {
      bytes.clear();
    }
  }
  return bytes;
}

void layer_pass(const exp::Lab& lab,
                const std::vector<exp::ScheduleRequest>& prewarm,
                const std::vector<exp::ScheduleRequest>& requests,
                const std::string& trace_path, Outcome& out) {
  const exp::Session session(lab);
  Replayer plain(lab);
  Replayer traced(lab);
  obs::Tracer tracer;
  for (const auto& req : prewarm) {
    session.run(req);
    plain.run(req, {});
    traced.run(req, {});
  }
  const std::uint64_t parsed0 = traced.parsed_tasks();
  const std::uint64_t scheduled0 = traced.scheduled_tasks();
  const std::uint64_t executed0 = traced.executed_tasks();
  const std::uint64_t misses0 = traced.misses();

  double session_s = 0.0, plain_s = 0.0, traced_s = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& req = requests[i];
    std::string untraced_bytes, traced_bytes;
    exp::ScheduleResponse reference;
    auto run_session = [&] {
      const auto t = Clock::now();
      reference = session.run(req);
      session_s += seconds_since(t);
    };
    auto run_plain = [&] {
      const auto t = Clock::now();
      untraced_bytes = plain.run(req, {});
      plain_s += seconds_since(t);
    };
    auto run_traced = [&] {
      const auto track = tracer.track("req " + std::to_string(i));
      const auto t = Clock::now();
      traced_bytes = traced.run(req, track);
      traced_s += seconds_since(t);
    };
    // Rotate the order so that no variant always runs with the caches
    // the others warmed.
    switch (i % 3) {
      case 0: run_session(); run_plain(); run_traced(); break;
      case 1: run_plain(); run_traced(); run_session(); break;
      default: run_traced(); run_session(); run_plain(); break;
    }
    const std::string ref_bytes = exp::encode_response(reference);
    out.check(reference.ok() && traced_bytes == ref_bytes &&
              untraced_bytes == ref_bytes);
  }

  const auto profile = obs::TraceProfile::from_tracer(tracer);
  auto total = [&](const char* cat, const char* name) {
    const auto* s = profile.find(cat, name);
    return s != nullptr ? s->total_seconds : 0.0;
  };
  auto count = [&](const char* cat, const char* name) {
    const auto* s = profile.find(cat, name);
    return s != nullptr ? static_cast<double>(s->count) : 0.0;
  };
  auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  const double n = static_cast<double>(requests.size());
  const double request_s = total("exp", "request");
  const double parsed = static_cast<double>(traced.parsed_tasks() - parsed0);
  const double scheduled =
      static_cast<double>(traced.scheduled_tasks() - scheduled0);
  const double executed =
      static_cast<double>(traced.executed_tasks() - executed0);
  double pipeline_s = 0.0;  // the layers exp::Session::run itself performs
  for (const auto& l : kLayers) {
    if (std::string(l.category) != "exp") pipeline_s += total(l.category, l.name);
  }
  const double codec_s =
      total("exp", "encode_request") + total("exp", "parse_request") +
      total("exp", "encode_response") + total("exp", "parse_response");

  out.layer("dag.parse_ns_per_task",
            per(total("dag", "from_text"), parsed) * 1e9, "ns/task");
  out.layer("dag.canon_ns_per_task",
            per(total("dag", "to_text"), parsed) * 1e9, "ns/task");
  out.layer("sched.allocate_ms",
            per(total("sched", "allocate"), count("sched", "allocate")) * 1e3,
            "ms");
  out.layer("sched.allocate_share", per(total("sched", "allocate"), request_s),
            "fraction");
  out.layer("sched.map_ms",
            per(total("sched", "map"), count("sched", "map")) * 1e3, "ms");
  out.layer("sched.map_share", per(total("sched", "map"), request_s),
            "fraction");
  out.layer("sim.simulate_us_per_task",
            per(total("sim", "simulate"), scheduled) * 1e6, "us/task");
  out.layer("sim.simulate_share", per(total("sim", "simulate"), request_s),
            "fraction");
  out.layer("tgrid.execute_us_per_task",
            per(total("tgrid", "execute"), executed) * 1e6, "us/task");
  out.layer("tgrid.execute_share", per(total("tgrid", "execute"), request_s),
            "fraction");
  out.layer("exp.session_self_us", per(session_s - pipeline_s, n) * 1e6, "us");
  out.layer("exp.rpc_codec_us", per(codec_s, n) * 1e6, "us");
  out.layer("bench.trace_overhead", per(traced_s, plain_s), "ratio");

  char line[160];
  std::snprintf(line, sizeof line,
                "traced pass: %zu requests (%llu schedule misses), replay "
                "%.4f s traced / %.4f s untraced, Session::run %.4f s",
                requests.size(),
                static_cast<unsigned long long>(traced.misses() - misses0),
                traced_s, plain_s, session_s);
  out.notes.emplace_back(line);
  out.notes.emplace_back("layer              calls     self_ms   share");
  for (const auto& l : kLayers) {
    const auto* s = profile.find(l.category, l.name);
    const double self = s != nullptr ? s->self_seconds : 0.0;
    std::snprintf(line, sizeof line, "%-18s %6zu %11.3f %7.2f%%",
                  (std::string(l.category) + "/" + l.name).c_str(),
                  s != nullptr ? s->count : std::size_t{0}, self * 1e3,
                  100.0 * per(self, request_s));
    out.notes.emplace_back(line);
  }
  const auto* root = profile.find("exp", "request");
  std::snprintf(line, sizeof line, "%-18s %6zu %11.3f %7.2f%%",
                "exp/request (self)", root != nullptr ? root->count : 0,
                (root != nullptr ? root->self_seconds : 0.0) * 1e3,
                100.0 * per(root != nullptr ? root->self_seconds : 0.0,
                            request_s));
  out.notes.emplace_back(line);

  if (!trace_path.empty()) {
    std::ofstream f(trace_path, std::ios::binary);
    f << obs::to_chrome_json(tracer);
    out.notes.push_back("trace written to " + trace_path +
                        " (read it with `mtsched_cli trace-report`)");
  }
}

double allocate_seconds(const exp::Lab& lab, const std::string& text,
                        const std::string& alloc_name, int reps) {
  const auto g = mtsched::dag::from_text(text);
  const auto allocator = mtsched::sched::make_allocator(alloc_name);
  const mtsched::models::SchedCostAdapter cost(
      lab.model(mtsched::models::CostModelKind::Profile));
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    const auto sizes = allocator->allocate(g, cost, lab.spec().num_nodes);
    times.push_back(seconds_since(t));
    if (sizes.size() != g.num_tasks()) return 0.0;
  }
  return median(times);
}

}  // namespace e2ebench
