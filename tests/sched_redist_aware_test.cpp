// Tests for the redistribution-aware mapping strategy.
#include <gtest/gtest.h>

#include <algorithm>

#include "mtsched/dag/generator.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"

namespace {

using namespace mtsched;
using namespace mtsched::sched;
using namespace mtsched::dag;

/// Costs with an expensive redistribution split into overhead + payload.
class RedistHeavyCost final : public SchedCost {
 public:
  RedistHeavyCost(double exec, double redist, double overhead)
      : exec_(exec), redist_(redist), overhead_(overhead) {}
  double exec_time(const Task&, int p) const override { return exec_ / p; }
  double startup_time(int) const override { return 0.0; }
  double redist_time(const Task&, int, int) const override {
    return redist_;
  }
  double redist_overhead_time(int, int) const override { return overhead_; }

 private:
  double exec_, redist_, overhead_;
};

Dag chain2() {
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatMul, 2000, "b");
  g.add_edge(a, b);
  return g;
}

TEST(RedistAware, ReusesPredecessorProcessors) {
  const auto g = chain2();
  const RedistHeavyCost cost(10.0, 5.0, 0.5);
  const ListMapper aware(MappingStrategy::RedistributionAware);
  const auto s = aware.map(g, {2, 2}, cost, 8);
  // The successor should sit exactly on its predecessor's processors: the
  // locality bonus (5 s) dwarfs the wait (the EST mapper would take two
  // fresh processors instead).
  EXPECT_EQ(s.placements[1].procs, s.placements[0].procs);
}

TEST(EarliestStart, TakesFreshProcessors) {
  const auto g = chain2();
  const RedistHeavyCost cost(10.0, 5.0, 0.5);
  const ListMapper est(MappingStrategy::EarliestStart);
  const auto s = est.map(g, {2, 2}, cost, 8);
  // EST ignores locality: picks the earliest-free (untouched) processors.
  for (int pr : s.placements[1].procs) {
    EXPECT_EQ(std::count(s.placements[0].procs.begin(),
                         s.placements[0].procs.end(), pr),
              0);
  }
}

TEST(RedistAware, FullOverlapDiscountsPayloadOnly) {
  const auto g = chain2();
  const RedistHeavyCost cost(10.0, 5.0, 0.5);
  const ListMapper aware(MappingStrategy::RedistributionAware);
  const auto s = aware.map(g, {2, 2}, cost, 8);
  // b starts after a finishes plus the protocol overhead only (payload
  // fully local): 5 + 0.5.
  EXPECT_DOUBLE_EQ(s.placements[0].est_finish, 5.0);
  EXPECT_DOUBLE_EQ(s.placements[1].est_start, 5.5);
}

TEST(RedistAware, CheapRedistributionFallsBackToEst) {
  // When redistribution costs nothing, waiting for busy processors is a
  // pure loss; the aware mapper behaves like EST.
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatMul, 2000, "b");  // independent
  g.add_edge(a, b);
  const RedistHeavyCost cost(10.0, 0.0, 0.0);
  const ListMapper aware(MappingStrategy::RedistributionAware);
  const auto s = aware.map(g, {2, 2}, cost, 8);
  // No bonus: earliest-available (fresh) processors win.
  for (int pr : s.placements[b].procs) {
    EXPECT_EQ(std::count(s.placements[a].procs.begin(),
                         s.placements[a].procs.end(), pr),
              0);
  }
}

TEST(RedistAware, SchedulesValidateAcrossSuite) {
  static const auto suite = generate_table1_suite();
  const RedistHeavyCost cost(30.0, 2.0, 0.3);
  const ListMapper aware(MappingStrategy::RedistributionAware);
  for (std::size_t i = 0; i < suite.size(); i += 9) {
    const auto alloc =
        HcpaAllocator{}.allocate(suite[i].graph, cost, 32);
    const auto s = aware.map(suite[i].graph, alloc, cost, 32);
    EXPECT_NO_THROW(validate_schedule(suite[i].graph, s, 32));
  }
}

TEST(RedistAware, NeverWorseEstimateOnChains) {
  // On chain-structured DAGs with costly redistribution, the aware mapper
  // should never predict a longer makespan than EST.
  const RedistHeavyCost cost(20.0, 8.0, 1.0);
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    DagGenParams params;
    params.width = 2;  // chain-like
    params.seed = seed;
    const auto inst = generate_random_dag(params);
    const auto alloc = HcpaAllocator{}.allocate(inst.graph, cost, 32);
    const auto est =
        ListMapper(MappingStrategy::EarliestStart).map(inst.graph, alloc,
                                                       cost, 32);
    const auto aware = ListMapper(MappingStrategy::RedistributionAware)
                           .map(inst.graph, alloc, cost, 32);
    EXPECT_LE(aware.est_makespan, est.est_makespan + 1e-9) << inst.name;
  }
}

TEST(RedistAware, EqualsEstWithoutDataEdges) {
  // Without data dependencies there is neither a locality bonus (the mean
  // redistribution estimate is 0) nor an overlap discount, so
  // redistribution-aware mapping must coincide exactly with EST. (With
  // edges the two can diverge: the overlap discount legitimately shifts
  // downstream timings.)
  const RedistHeavyCost cost(20.0, 8.0, 1.0);
  Dag g;
  std::vector<int> alloc;
  for (int i = 0; i < 9; ++i) {
    g.add_task(TaskKernel::MatMul, 2000);
    alloc.push_back(1 + (i * 5) % 11);
  }
  const auto est =
      ListMapper(MappingStrategy::EarliestStart).map(g, alloc, cost, 16);
  const auto aware =
      ListMapper(MappingStrategy::RedistributionAware).map(g, alloc, cost, 16);
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    EXPECT_EQ(est.placements[t].procs, aware.placements[t].procs);
    EXPECT_DOUBLE_EQ(est.placements[t].est_start,
                     aware.placements[t].est_start);
  }
}

}  // namespace
