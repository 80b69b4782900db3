// Cross-cutting conservation and bound properties.
//
// These are the "physics" of the fluid simulation: whatever the contention
// pattern, completed work must equal submitted work, and schedule replay
// makespans must respect simple lower and upper bounds.
#include <gtest/gtest.h>

#include <tuple>

#include "mtsched/core/rng.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/exp/lab.hpp"
#include "mtsched/models/profile.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"
#include "mtsched/simcore/engine.hpp"

namespace {

using namespace mtsched;

/// Random storms of fluid activities: after the engine drains, the usage
/// accounted on every resource equals exactly the work submitted against
/// it (integral of rate over time = amount, per activity).
class EngineConservation : public ::testing::TestWithParam<int> {};

TEST_P(EngineConservation, ConsumedEqualsSubmitted) {
  core::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 5);
  simcore::Engine e;
  const int num_res = 3 + static_cast<int>(rng.uniform_int(0, 5));
  for (int r = 0; r < num_res; ++r) {
    e.add_resource(rng.uniform(5.0, 500.0));
  }
  std::vector<double> expected(static_cast<std::size_t>(num_res), 0.0);
  const int num_act = 5 + static_cast<int>(rng.uniform_int(0, 25));
  for (int a = 0; a < num_act; ++a) {
    const double amount = rng.uniform(0.5, 20.0);
    const double delay = rng.uniform() < 0.3 ? rng.uniform(0.0, 2.0) : 0.0;
    std::vector<simcore::Use> uses;
    const int k = 1 + static_cast<int>(rng.uniform_int(0, 2));
    std::vector<std::size_t> rs(static_cast<std::size_t>(num_res));
    for (std::size_t i = 0; i < rs.size(); ++i) rs[i] = i;
    rng.shuffle(rs);
    for (int i = 0; i < k; ++i) {
      const double w = rng.uniform(0.1, 4.0);
      uses.push_back(simcore::Use{rs[static_cast<std::size_t>(i)], w});
      expected[rs[static_cast<std::size_t>(i)]] += w * amount;
    }
    e.submit(std::move(uses), amount, delay, nullptr);
  }
  e.run();
  for (int r = 0; r < num_res; ++r) {
    EXPECT_NEAR(e.resource_usage(static_cast<std::size_t>(r)),
                expected[static_cast<std::size_t>(r)],
                1e-6 * (1.0 + expected[static_cast<std::size_t>(r)]))
        << "resource " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Storms, EngineConservation,
                         ::testing::Range(1, 26));

/// Shared lab for the bound sweeps.
const exp::Lab& lab() {
  static const exp::Lab instance;
  return instance;
}

/// Replay bounds under the profile model, across Table I instances:
///   lower: the makespan can not beat the longest single task of the
///          schedule (startup + execution);
///   upper: it can not exceed the fully serialized sum of every task and
///          every redistribution estimate (with a margin for the payload
///          transfers the estimate prices at bottleneck rate).
class SimulatorBounds : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimulatorBounds, MakespanWithinStructuralBounds) {
  static const auto suite = dag::generate_table1_suite();
  const auto& inst = suite[GetParam()];
  const auto& model = lab().profile();
  const models::SchedCostAdapter cost(model);
  const sched::McpaAllocator mcpa;
  const int P = lab().spec().num_nodes;
  const auto schedule = sched::ListMapper{}.map(
      inst.graph, mcpa.allocate(inst.graph, cost, P), cost, P);
  const double mk = sim::Simulator(model).makespan(inst.graph, schedule);

  double longest_task = 0.0;
  double serial_sum = 0.0;
  for (dag::TaskId t = 0; t < inst.graph.num_tasks(); ++t) {
    const int p = static_cast<int>(schedule.placements[t].procs.size());
    const double task_time = model.exec_estimate(inst.graph.task(t), p) +
                             model.startup_estimate(p);
    longest_task = std::max(longest_task, task_time);
    serial_sum += task_time;
  }
  for (const auto& edge : inst.graph.edges()) {
    serial_sum += cost.redist_time(
        inst.graph.task(edge.src),
        static_cast<int>(schedule.placements[edge.src].procs.size()),
        static_cast<int>(schedule.placements[edge.dst].procs.size()));
  }
  EXPECT_GE(mk, longest_task - 1e-9) << inst.name;
  EXPECT_LE(mk, serial_sum * 1.05 + 1.0) << inst.name;
}

INSTANTIATE_TEST_SUITE_P(Table1, SimulatorBounds,
                         ::testing::Range<std::size_t>(0, 54, 4));

/// The experiment's noise changes measurements, never the simulation; and
/// makespans stay within a plausible band of the simulated value under
/// the refined model (the paper's accuracy claim as a sweep).
class NoiseSeparation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NoiseSeparation, SimulationIgnoresExperimentSeed) {
  static const auto suite = dag::generate_table1_suite();
  const auto& inst = suite[GetParam()];
  const auto& model = lab().profile();
  const models::SchedCostAdapter cost(model);
  const sched::HcpaAllocator hcpa;
  const int P = lab().spec().num_nodes;
  const auto schedule = sched::ListMapper{}.map(
      inst.graph, hcpa.allocate(inst.graph, cost, P), cost, P);
  const double sim_mk = sim::Simulator(model).makespan(inst.graph, schedule);
  for (std::uint64_t seed : {1, 2}) {
    const double exp_mk = lab().rig().makespan(inst.graph, schedule, seed);
    EXPECT_NEAR(exp_mk, sim_mk, sim_mk * 0.25) << inst.name;
  }
  EXPECT_NE(lab().rig().makespan(inst.graph, schedule, 1),
            lab().rig().makespan(inst.graph, schedule, 2));
}

INSTANTIATE_TEST_SUITE_P(Table1, NoiseSeparation,
                         ::testing::Range<std::size_t>(0, 54, 11));

}  // namespace
