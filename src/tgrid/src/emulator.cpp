#include "mtsched/tgrid/emulator.hpp"

#include <optional>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/obs/trace.hpp"
#include "mtsched/sched/replay.hpp"
#include "mtsched/simcore/fifo.hpp"

namespace mtsched::tgrid {

namespace {

/// Noise streams: samples are bound to entities (task/edge ids), not to
/// event order, so the "weather" of a given seed is stable.
enum class Stream : std::uint64_t { Startup = 1, Exec = 2, Redist = 3 };

core::Rng entity_rng(std::uint64_t seed, Stream s, std::uint64_t entity) {
  return core::Rng(
      core::hash_mix(seed, static_cast<std::uint64_t>(s), entity));
}

/// Replay costs sampled from the ground-truth machine model. A
/// redistribution registers with the single subnet manager, so it also
/// waits for the consumer's containers.
class EmuReplay final : public sched::DagReplay {
 public:
  EmuReplay(const dag::Dag& g, const sched::Schedule& s,
            const platform::ClusterSpec& spec,
            const machine::MachineModel& machine, std::uint64_t seed)
      : DagReplay(g, s, spec, /*redist_waits_for_startup=*/true),
        machine_(machine),
        seed_(seed),
        subnet_(engine_, "subnet_manager") {}

 private:
  void start(dag::TaskId t) override {
    auto rng = entity_rng(seed_, Stream::Startup, t);
    const double startup = machine_.startup_sample(procs(t), rng);
    engine_.submit_timer(
        startup, [this, t](double) { started(t); },
        traced_name("startup_", t));
  }

  void request(std::size_t e) override {
    const auto& edge = g_.edges()[e];
    auto rng = entity_rng(seed_, Stream::Redist, e);
    const double service =
        machine_.redist_overhead_sample(procs(edge.src), procs(edge.dst), rng);
    subnet_.enqueue(service,
                    [this, e](double when) { transfer(e, when); });
  }

  void execute(dag::TaskId t) override {
    const auto& task = g_.task(t);
    auto rng = entity_rng(seed_, Stream::Exec, t);
    // Heterogeneous sets run at the pace of their slowest member.
    const double exec =
        machine_.exec_time_sample(task.kernel, task.matrix_dim, procs(t),
                                  rng) *
        platform::exec_slowdown(cluster_.spec(), s_.placement(t).procs);
    engine_.submit_timer(
        exec, [this, t](double when) { finished(t, when); },
        traced_name("exec_", t));
  }

  const machine::MachineModel& machine_;
  const std::uint64_t seed_;
  simcore::FifoServer subnet_;
};

}  // namespace

TGridEmulator::TGridEmulator(const machine::MachineModel& machine,
                             platform::ClusterSpec spec)
    : machine_(machine), spec_(std::move(spec)) {
  spec_.validate();
  MTSCHED_REQUIRE(spec_.num_nodes == machine_.max_procs(),
                  "platform node count must match the machine model");
}

sched::RunTrace TGridEmulator::run(const dag::Dag& g, const sched::Schedule& s,
                                   std::uint64_t seed) const {
  EmuReplay replay(g, s, spec_, machine_, seed);
  std::optional<obs::Span> obs_span;
  if (const obs::Track trk = obs::current_track()) {
    obs_span.emplace(trk, "tgrid", "execute",
                     obs::Args{{"tasks", std::to_string(g.num_tasks())},
                               {"seed", std::to_string(seed)}});
  }
  return replay.run();
}

double TGridEmulator::makespan(const dag::Dag& g, const sched::Schedule& s,
                               std::uint64_t seed) const {
  return run(g, s, seed).makespan;
}

double TGridEmulator::measure_startup(int p, std::uint64_t seed) const {
  MTSCHED_REQUIRE(p >= 1 && p <= spec_.num_nodes, "allocation out of range");
  // A solo no-op application spends exactly its startup phase; no queueing
  // or contention exists in a single-task run.
  auto rng = entity_rng(seed, Stream::Startup, static_cast<std::uint64_t>(p));
  return machine_.startup_sample(p, rng);
}

double TGridEmulator::measure_exec(dag::TaskKernel k, int n, int p,
                                   std::uint64_t seed) const {
  MTSCHED_REQUIRE(p >= 1 && p <= spec_.num_nodes, "allocation out of range");
  auto rng = entity_rng(seed, Stream::Exec,
                        core::hash_mix(static_cast<std::uint64_t>(k),
                                       static_cast<std::uint64_t>(n),
                                       static_cast<std::uint64_t>(p)));
  return machine_.exec_time_sample(k, n, p, rng);
}

double TGridEmulator::measure_redist_overhead(int p_src, int p_dst,
                                              std::uint64_t seed) const {
  MTSCHED_REQUIRE(p_src >= 1 && p_src <= spec_.num_nodes,
                  "source allocation out of range");
  MTSCHED_REQUIRE(p_dst >= 1 && p_dst <= spec_.num_nodes,
                  "destination allocation out of range");
  auto rng = entity_rng(seed, Stream::Redist,
                        core::hash_mix(static_cast<std::uint64_t>(p_src),
                                       static_cast<std::uint64_t>(p_dst)));
  // The mostly-empty matrix's transfer time is negligible by construction;
  // only the registration service and one network round remain. The round
  // may take the worst route on hierarchical platforms (identical to
  // route_latency() on stars).
  return machine_.redist_overhead_sample(p_src, p_dst, rng) +
         spec_.max_route_latency();
}

}  // namespace mtsched::tgrid
