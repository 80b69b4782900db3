#include "mtsched/sim/simulator.hpp"

#include "mtsched/core/error.hpp"
#include "mtsched/sched/replay.hpp"

namespace mtsched::sim {

namespace {

/// Replay costs from the cost model; deterministic.
class SimReplay final : public sched::DagReplay {
 public:
  SimReplay(const dag::Dag& g, const sched::Schedule& s,
            const models::CostModel& model, obs::Track trace)
      : DagReplay(g, s, model.spec(), /*redist_waits_for_startup=*/false),
        model_(model) {
    engine_.set_trace(trace);
  }

 private:
  void start(dag::TaskId t) override {
    const double startup =
        model_.task_sim_cost(g_.task(t), procs(t)).startup_seconds;
    if (startup > 0.0) {
      engine_.submit_timer(
          startup, [this, t](double) { started(t); },
          "startup_" + g_.task(t).name);
    } else {
      started(t);
    }
  }

  void request(std::size_t e) override {
    const auto& edge = g_.edges()[e];
    const double overhead =
        model_.redist_overhead(procs(edge.src), procs(edge.dst));
    if (overhead > 0.0) {
      engine_.submit_timer(
          overhead, [this, e](double when) { transfer(e, when); },
          "redist_overhead");
    } else {
      transfer(e, engine_.now());
    }
  }

  void execute(dag::TaskId t) override {
    const auto& pl = s_.placement(t);
    auto cost = model_.task_sim_cost(g_.task(t), procs(t));
    auto done = [this, t](double when) { finished(t, when); };
    if (cost.is_fixed()) {
      // Fixed durations were measured/regressed at the reference speed;
      // heterogeneous sets run at the pace of their slowest member. (The
      // analytical branch below needs no correction: per-node cpu resources
      // bound the fluid activity by the slowest member automatically.)
      const double scaled = cost.fixed_seconds *
                            platform::exec_slowdown(model_.spec(), pl.procs);
      engine_.submit_timer(scaled, done, g_.task(t).name);
    } else {
      simcore::Ptask pt;
      pt.name = g_.task(t).name;
      pt.host_of_rank = pl.procs;
      pt.flops = std::move(cost.flops_per_rank);
      pt.messages = std::move(cost.messages);
      MTSCHED_INVARIANT(cost.fixed_seconds == 0.0,
                        "resource-driven task costs must have no fixed part");
      cluster_.submit_ptask(pt, done);
    }
  }

  const models::CostModel& model_;
};

}  // namespace

Simulator::Simulator(const models::CostModel& model, obs::Track trace)
    : model_(model), trace_(trace) {}

sched::RunTrace Simulator::run(const dag::Dag& g,
                               const sched::Schedule& s) const {
  const obs::Track trk = trace_ ? trace_ : obs::current_track();
  SimReplay replay(g, s, model_, trk);
  const obs::Span obs_span(trk, "sim", "simulate:" + model_.name(),
                           {{"tasks", std::to_string(g.num_tasks())},
                            {"P", std::to_string(model_.spec().num_nodes)}});
  sched::RunTrace trace = replay.run();
  trk.counter("sim", "makespan_seconds", trace.makespan);
  return trace;
}

double Simulator::makespan(const dag::Dag& g, const sched::Schedule& s) const {
  return run(g, s).makespan;
}

}  // namespace mtsched::sim
