// Tests for the simulator front-end under the three cost-model kinds.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/models/analytical.hpp"
#include "mtsched/models/profile.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"
#include "mtsched/sim/simulator.hpp"

namespace {

using namespace mtsched;
using dag::TaskKernel;

platform::ClusterSpec small_cluster() {
  auto spec = platform::bayreuth32();
  spec.num_nodes = 8;
  return spec;
}

models::ProfileTables flat_tables(int nodes, double exec, double startup,
                                  double redist) {
  models::ProfileTables t;
  std::vector<double> e(nodes);
  for (int p = 1; p <= nodes; ++p) e[p - 1] = exec / p;
  t.exec[{TaskKernel::MatMul, 2000}] = e;
  t.exec[{TaskKernel::MatAdd, 2000}] = e;
  t.startup.assign(nodes, startup);
  t.redist_by_dst.assign(nodes, redist);
  return t;
}

/// Builds a schedule directly (placements + orders + est times).
sched::Schedule manual_schedule(
    const dag::Dag& g,
    const std::vector<std::pair<std::vector<int>, std::pair<double, double>>>&
        placements,
    int P) {
  sched::Schedule s;
  s.placements.resize(g.num_tasks());
  s.proc_order.assign(P, {});
  std::vector<std::vector<std::pair<double, dag::TaskId>>> on_proc(P);
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    s.placements[t].procs = placements[t].first;
    s.placements[t].est_start = placements[t].second.first;
    s.placements[t].est_finish = placements[t].second.second;
    for (int pr : placements[t].first) {
      on_proc[pr].push_back({placements[t].second.first, t});
    }
    s.est_makespan = std::max(s.est_makespan, placements[t].second.second);
  }
  for (int pr = 0; pr < P; ++pr) {
    std::sort(on_proc[pr].begin(), on_proc[pr].end());
    for (const auto& [st, t] : on_proc[pr]) s.proc_order[pr].push_back(t);
  }
  return s;
}

TEST(SimulatorAnalytical, SingleSequentialTask) {
  const auto spec = small_cluster();
  const models::AnalyticalModel model(spec);
  dag::Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  const auto s = manual_schedule(g, {{{0}, {0.0, 64.0}}}, spec.num_nodes);
  const sim::Simulator simulator(model);
  const double mk = simulator.makespan(g, s);
  // 16e9 flops at 250 MFlop/s.
  EXPECT_DOUBLE_EQ(mk, 64.0);
}

TEST(SimulatorAnalytical, ParallelTaskBottleneck) {
  const auto spec = small_cluster();
  const models::AnalyticalModel model(spec);
  dag::Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  const auto s =
      manual_schedule(g, {{{0, 1, 2, 3}, {0.0, 16.0}}}, spec.num_nodes);
  const double mk = sim::Simulator(model).makespan(g, s);
  // Compute 16 s per rank; ring comm far below it; latency once.
  EXPECT_NEAR(mk, 16.0 + spec.route_latency(), 1e-9);
}

TEST(SimulatorAnalytical, ChainIncludesRedistributionTransfer) {
  const auto spec = small_cluster();
  const models::AnalyticalModel model(spec);
  dag::Dag g;
  const auto a = g.add_task(TaskKernel::MatAdd, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatAdd, 2000, "b");
  g.add_edge(a, b);
  // a on {0}, b on {1}: full 32 MB matrix moves over 125 MB/s links.
  const auto s = manual_schedule(
      g, {{{0}, {0.0, 8.0}}, {{1}, {9.0, 17.1}}}, spec.num_nodes);
  const auto trace = sim::Simulator(model).run(g, s);
  const double t_add = 500.0 * 4e6 / 250e6;  // 8 s
  const double t_xfer = 2000.0 * 2000.0 * 8.0 / 125e6 + spec.route_latency();
  EXPECT_NEAR(trace.makespan, 2 * t_add + t_xfer, 1e-6);
  EXPECT_NEAR(trace.edges[0].request, t_add, 1e-9);
  EXPECT_NEAR(trace.edges[0].transfer, t_add, 1e-9);  // no overhead
  EXPECT_NEAR(trace.edges[0].done, t_add + t_xfer, 1e-6);
}

TEST(SimulatorProfile, FixedDurationsAndOverheads) {
  const auto spec = small_cluster();
  const models::ProfileModel model(
      spec, flat_tables(spec.num_nodes, 10.0, 1.0, 0.5));
  dag::Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatMul, 2000, "b");
  g.add_edge(a, b);
  const auto s = manual_schedule(
      g, {{{0, 1}, {0.0, 6.0}}, {{2, 3}, {7.0, 13.0}}}, spec.num_nodes);
  const auto trace = sim::Simulator(model).run(g, s);
  // a: startup 1 + exec 5 = 6. redistribution: overhead 0.5 + transfer.
  EXPECT_NEAR(trace.tasks[a].finish, 6.0, 1e-9);
  EXPECT_NEAR(trace.edges[0].transfer, 6.5, 1e-9);
  const double xfer = trace.edges[0].done - trace.edges[0].transfer;
  EXPECT_GT(xfer, 0.1);  // 32 MB over GigE
  // b sits on free processors: its startup ran at t = 0..1, long done by
  // the time the data arrives, so execution starts at data arrival.
  EXPECT_DOUBLE_EQ(trace.tasks[b].startup_begin, 0.0);
  const double data_at = trace.edges[0].done;
  EXPECT_NEAR(trace.tasks[b].exec_begin, data_at, 1e-9);
  EXPECT_NEAR(trace.tasks[b].finish, trace.tasks[b].exec_begin + 5.0, 1e-9);
}

TEST(SimulatorProfile, StartupOverlapsInboundRedistribution) {
  // The TGrid lifecycle: a successor's startup runs while its input data
  // is still in flight — the simulator mirrors that.
  const auto spec = small_cluster();
  const models::ProfileModel model(
      spec, flat_tables(spec.num_nodes, 10.0, 3.0, 2.0));
  dag::Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatMul, 2000, "b");
  g.add_edge(a, b);
  const auto s = manual_schedule(
      g, {{{0}, {0.0, 13.0}}, {{1}, {15.0, 30.0}}}, spec.num_nodes);
  const auto trace = sim::Simulator(model).run(g, s);
  // b is on a free processor: its startup begins at t=0, long before a
  // finishes at 13.
  EXPECT_DOUBLE_EQ(trace.tasks[b].startup_begin, 0.0);
  EXPECT_GT(trace.edges[0].request, 12.9);
}

TEST(SimulatorProfile, SharedProcessorSerializes) {
  const auto spec = small_cluster();
  const models::ProfileModel model(
      spec, flat_tables(spec.num_nodes, 10.0, 1.0, 0.0));
  dag::Dag g;
  g.add_task(TaskKernel::MatMul, 2000, "a");
  g.add_task(TaskKernel::MatMul, 2000, "b");  // independent
  const auto s = manual_schedule(
      g, {{{0}, {0.0, 11.0}}, {{0}, {11.0, 22.0}}}, spec.num_nodes);
  const auto trace = sim::Simulator(model).run(g, s);
  // b's startup cannot begin until a releases processor 0.
  EXPECT_DOUBLE_EQ(trace.tasks[1].startup_begin, 11.0);
  EXPECT_DOUBLE_EQ(trace.makespan, 22.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto spec = small_cluster();
  const models::AnalyticalModel model(spec);
  dag::DagGenParams params;
  params.seed = 31;
  const auto inst = dag::generate_random_dag(params);
  const models::SchedCostAdapter cost(model);
  const sched::CpaAllocator cpa;
  const auto schedule = sched::ListMapper{}.map(
      inst.graph, cpa.allocate(inst.graph, cost, spec.num_nodes), cost,
      spec.num_nodes);
  const sim::Simulator simulator(model);
  EXPECT_DOUBLE_EQ(simulator.makespan(inst.graph, schedule),
                   simulator.makespan(inst.graph, schedule));
}

TEST(Simulator, RejectsInvalidSchedule) {
  const auto spec = small_cluster();
  const models::AnalyticalModel model(spec);
  dag::Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  sched::Schedule s;  // empty: wrong sizes
  EXPECT_THROW(sim::Simulator(model).run(g, s),
               mtsched::core::InvalidArgument);
}

TEST(Simulator, TraceCsvHasAllRecords) {
  const auto spec = small_cluster();
  const models::AnalyticalModel model(spec);
  dag::DagGenParams params;
  params.seed = 8;
  const auto inst = dag::generate_random_dag(params);
  const models::SchedCostAdapter cost(model);
  const sched::McpaAllocator mcpa;
  const auto schedule = sched::ListMapper{}.map(
      inst.graph, mcpa.allocate(inst.graph, cost, spec.num_nodes), cost,
      spec.num_nodes);
  const auto trace = sim::Simulator(model).run(inst.graph, schedule);
  const auto csv = trace.to_csv();
  std::size_t lines = 0, pos = 0;
  while ((pos = csv.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, 1 + inst.graph.num_tasks() + inst.graph.num_edges());
}

}  // namespace
