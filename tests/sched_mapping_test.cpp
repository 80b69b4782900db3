// Tests for the list mapping phase, schedule validation and replay-order
// utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/generator.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/sched/allocation.hpp"
#include "mtsched/sched/mapping.hpp"

namespace {

using namespace mtsched::sched;
using namespace mtsched::dag;
using mtsched::core::InvalidArgument;

class FlatCost final : public SchedCost {
 public:
  explicit FlatCost(double exec = 10.0, double startup = 0.0,
                    double redist = 0.0)
      : exec_(exec), startup_(startup), redist_(redist) {}
  double exec_time(const Task&, int p) const override { return exec_ / p; }
  double startup_time(int) const override { return startup_; }
  double redist_time(const Task&, int, int) const override {
    return redist_;
  }

 private:
  double exec_, startup_, redist_;
};

Dag pair_chain() {
  Dag g;
  const auto a = g.add_task(TaskKernel::MatMul, 2000, "a");
  const auto b = g.add_task(TaskKernel::MatMul, 2000, "b");
  g.add_edge(a, b);
  return g;
}

TEST(Mapper, SingleTaskUsesEarliestProcessors) {
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  const FlatCost cost;
  const auto s = ListMapper{}.map(g, {3}, cost, 8);
  EXPECT_EQ(s.placements[0].procs, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(s.placements[0].est_start, 0.0);
}

TEST(Mapper, DependentTaskStartsAfterPredecessorPlusRedist) {
  const auto g = pair_chain();
  const FlatCost cost(10.0, 0.0, 2.5);
  const auto s = ListMapper{}.map(g, {2, 2}, cost, 8);
  EXPECT_DOUBLE_EQ(s.placements[0].est_finish, 5.0);
  EXPECT_DOUBLE_EQ(s.placements[1].est_start, 7.5);
  EXPECT_DOUBLE_EQ(s.est_makespan, 12.5);
}

TEST(Mapper, StartupIncludedInTaskTime) {
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  const FlatCost cost(10.0, 3.0);
  const auto s = ListMapper{}.map(g, {2}, cost, 4);
  EXPECT_DOUBLE_EQ(s.placements[0].est_finish, 8.0);  // 10/2 + 3
}

TEST(Mapper, IndependentTasksRunSideBySide) {
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  g.add_task(TaskKernel::MatMul, 2000);
  const FlatCost cost;
  const auto s = ListMapper{}.map(g, {2, 2}, cost, 4);
  EXPECT_DOUBLE_EQ(s.placements[0].est_start, 0.0);
  EXPECT_DOUBLE_EQ(s.placements[1].est_start, 0.0);
  // Disjoint processor sets.
  for (int pr : s.placements[0].procs) {
    for (int qr : s.placements[1].procs) EXPECT_NE(pr, qr);
  }
}

TEST(Mapper, SerializesWhenProcessorsScarce) {
  Dag g;
  g.add_task(TaskKernel::MatMul, 2000);
  g.add_task(TaskKernel::MatMul, 2000);
  const FlatCost cost;
  const auto s = ListMapper{}.map(g, {4, 4}, cost, 4);
  const double s0 = s.placements[0].est_start;
  const double s1 = s.placements[1].est_start;
  EXPECT_NE(s0, s1);
  EXPECT_DOUBLE_EQ(std::max(s0, s1), 2.5);
}

TEST(Mapper, HigherBottomLevelGoesFirst) {
  // A fork where one branch is much heavier: the heavy branch should be
  // mapped first (lower start time) when processors are scarce.
  Dag g;
  const auto heavy = g.add_task(TaskKernel::MatMul, 3000, "heavy");
  const auto light = g.add_task(TaskKernel::MatAdd, 2000, "light");
  class KernelCost final : public SchedCost {
   public:
    double exec_time(const Task& t, int p) const override {
      return kernel_flops(t.kernel, t.matrix_dim) / 1e9 / p;
    }
    double startup_time(int) const override { return 0.0; }
    double redist_time(const Task&, int, int) const override { return 0.0; }
  };
  const auto s = ListMapper{}.map(g, {2, 2}, KernelCost{}, 2);
  EXPECT_LT(s.placements[heavy].est_start, s.placements[light].est_start);
}

TEST(Mapper, RejectsBadAllocations) {
  const auto g = pair_chain();
  const FlatCost cost;
  EXPECT_THROW(ListMapper{}.map(g, {0, 1}, cost, 4), InvalidArgument);
  EXPECT_THROW(ListMapper{}.map(g, {5, 1}, cost, 4), InvalidArgument);
  EXPECT_THROW(ListMapper{}.map(g, {1}, cost, 4), InvalidArgument);
}

TEST(Validator, AcceptsMapperOutput) {
  const auto inst = generate_random_dag({});
  const FlatCost cost;
  const auto alloc = CpaAllocator{}.allocate(inst.graph, cost, 8);
  const auto s = ListMapper{}.map(inst.graph, alloc, cost, 8);
  EXPECT_NO_THROW(validate_schedule(inst.graph, s, 8));
}

TEST(Validator, CatchesCorruptions) {
  const auto g = pair_chain();
  const FlatCost cost;
  auto good = ListMapper{}.map(g, {1, 1}, cost, 2);

  auto s = good;
  s.placements[0].procs.clear();
  EXPECT_THROW(validate_schedule(g, s, 2), InvalidArgument);

  s = good;
  s.placements[0].procs = {0, 0};
  EXPECT_THROW(validate_schedule(g, s, 2), InvalidArgument);

  s = good;
  s.placements[0].procs = {7};
  EXPECT_THROW(validate_schedule(g, s, 2), InvalidArgument);

  s = good;
  s.placements[1].est_start = -100.0;  // starts before predecessor ends
  EXPECT_THROW(validate_schedule(g, s, 2), InvalidArgument);

  s = good;
  s.proc_order[0].clear();  // order disagrees with placements
  EXPECT_THROW(validate_schedule(g, s, 2), InvalidArgument);

  s = good;
  EXPECT_THROW(validate_schedule(g, s, 1), InvalidArgument);  // wrong P
}

TEST(Validator, CatchesOverlapOnSharedProcessor) {
  Dag g;
  g.add_task(TaskKernel::MatMul, 100, "x");
  g.add_task(TaskKernel::MatMul, 100, "y");
  Schedule s;
  s.placements.resize(2);
  s.placements[0] = {{0}, 0.0, 10.0};
  s.placements[1] = {{0}, 5.0, 15.0};  // overlaps on proc 0
  s.proc_order = {{0, 1}};
  EXPECT_THROW(validate_schedule(g, s, 1), InvalidArgument);
}

TEST(ReplayOrder, CombinesDagAndProcessorOrders) {
  // Two independent tasks forced into an order by sharing a processor.
  Dag g;
  g.add_task(TaskKernel::MatMul, 100);
  g.add_task(TaskKernel::MatMul, 100);
  Schedule s;
  s.placements.resize(2);
  s.placements[0] = {{0}, 0.0, 1.0};
  s.placements[1] = {{0}, 1.0, 2.0};
  s.proc_order = {{0, 1}};
  const auto order = replay_order(g, s);
  EXPECT_EQ(order, (std::vector<TaskId>{0, 1}));
}

TEST(ReplayOrder, DetectsDeadlock) {
  // DAG says 0 -> 1 but the processor order says 1 before 0.
  const auto g = pair_chain();
  Schedule s;
  s.placements.resize(2);
  s.placements[0] = {{0}, 0.0, 1.0};
  s.placements[1] = {{0}, 1.0, 2.0};
  s.proc_order = {{1, 0}};
  EXPECT_THROW(replay_order(g, s), InvalidArgument);
}

TEST(OrderPredecessors, DeduplicatesAcrossProcessors) {
  // Task 1 follows task 0 on two processors: one order predecessor.
  Dag g;
  g.add_task(TaskKernel::MatMul, 100);
  g.add_task(TaskKernel::MatMul, 100);
  Schedule s;
  s.placements.resize(2);
  s.placements[0] = {{0, 1}, 0.0, 1.0};
  s.placements[1] = {{0, 1}, 1.0, 2.0};
  s.proc_order = {{0, 1}, {0, 1}};
  const auto preds = order_predecessors(g, s);
  EXPECT_TRUE(preds[0].empty());
  EXPECT_EQ(preds[1], std::vector<TaskId>{0});
}

TEST(Schedule, AllocationAccessor) {
  const auto g = pair_chain();
  const FlatCost cost;
  const auto s = ListMapper{}.map(g, {3, 2}, cost, 8);
  EXPECT_EQ(s.allocation(), (std::vector<int>{3, 2}));
  EXPECT_EQ(s.num_procs(), 8);
  EXPECT_THROW(s.placement(5), InvalidArgument);
}

TEST(TwoStep, EndToEnd) {
  const auto inst = generate_random_dag({});
  const FlatCost cost(20.0, 1.0, 0.5);
  const CpaAllocator cpa;
  const auto s =
      ListMapper{}.map(inst.graph, cpa.allocate(inst.graph, cost, 16), cost,
                       16);
  EXPECT_NO_THROW(validate_schedule(inst.graph, s, 16));
  EXPECT_GT(s.est_makespan, 0.0);
}

/// Sweep: mapping the full Table I suite under all three algorithms always
/// yields schedules that pass structural validation.
class MappingProperties : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MappingProperties, AllSchedulesValidate) {
  static const auto suite = generate_table1_suite();
  const auto& inst = suite[GetParam()];
  const FlatCost cost(30.0, 1.0, 0.3);
  for (const char* name : {"CPA", "HCPA", "MCPA"}) {
    const auto algo = make_allocator(name);
    const auto alloc = algo->allocate(inst.graph, cost, 32);
    const auto s = ListMapper{}.map(inst.graph, alloc, cost, 32);
    EXPECT_NO_THROW(validate_schedule(inst.graph, s, 32)) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, MappingProperties,
                         ::testing::Range<std::size_t>(0, 54, 7));

/// Cost with shape- and size-dependent estimates, honouring the SchedCost
/// contract (redistribution reads the producer only through kernel and
/// matrix_dim). Startup makes ties on availability meaningful and the
/// overhead term exercises the payload-only overlap discount.
class VariedCost final : public SchedCost {
 public:
  double exec_time(const Task& t, int p) const override {
    const double base = (t.kernel == TaskKernel::MatMul ? 30.0 : 6.0) *
                        (static_cast<double>(t.matrix_dim) / 1000.0);
    return base / p;
  }
  double startup_time(int p) const override { return 0.1 + 0.02 * p; }
  double redist_time(const Task& t, int p_src, int p_dst) const override {
    return redist_overhead_time(p_src, p_dst) +
           (static_cast<double>(t.matrix_dim) / 1000.0) *
               (0.3 + 0.04 * p_src + 0.06 * p_dst);
  }
  double redist_overhead_time(int, int p_dst) const override {
    return 0.05 + 0.01 * p_dst;
  }
};

/// Naive list-mapping reference: rescans the whole priority list per
/// placement and re-evaluates every redistribution estimate with fresh
/// scalar cost calls, exactly as the pre-ready-queue implementation did.
/// The production mapper (ready queue, memoized redistribution curves,
/// incremental availability ranking, bitmask overlap counting) must match
/// it placement-for-placement, bit-for-bit.
///
/// For MappingStrategy::RackAware, `rack_of` gives each processor's rack
/// and `sigma` the same-rack bonus weight — feed it the production
/// mapper's own rack_of()/rack_sigma() values. Rack machinery engages
/// under the mapper's exact condition (sigma > 0 and rack data covering
/// all P processors); otherwise RackAware degenerates to
/// RedistributionAware here as well.
Schedule reference_list_map(const Dag& g, const std::vector<int>& alloc,
                            const SchedCost& cost, int P,
                            MappingStrategy strategy,
                            const std::vector<int>& rack_of = {},
                            double sigma = 0.0) {
  const bool redist_aware = strategy != MappingStrategy::EarliestStart;
  const bool rack_aware = strategy == MappingStrategy::RackAware &&
                          sigma > 0.0 &&
                          static_cast<std::size_t>(P) <= rack_of.size();
  std::vector<double> tau(g.num_tasks());
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    tau[t] = cost.task_time(g.task(t), alloc[t]);
  }
  std::vector<double> bl(g.num_tasks(), 0.0);
  const auto order_topo = g.topological_order();
  for (auto it = order_topo.rbegin(); it != order_topo.rend(); ++it) {
    const TaskId t = *it;
    bl[t] = tau[t];
    for (TaskId s : g.successors(t)) bl[t] = std::max(bl[t], tau[t] + bl[s]);
  }
  std::vector<TaskId> order(g.num_tasks());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (bl[a] != bl[b]) return bl[a] > bl[b];
    return a < b;
  });
  std::vector<bool> placed(g.num_tasks(), false);

  Schedule s;
  s.placements.resize(g.num_tasks());
  s.proc_order.assign(static_cast<std::size_t>(P), {});
  std::vector<double> proc_ready(static_cast<std::size_t>(P), 0.0);

  for (std::size_t placed_count = 0; placed_count < g.num_tasks();
       ++placed_count) {
    TaskId chosen = kInvalidTask;
    for (TaskId cand : order) {
      if (placed[cand]) continue;
      bool ready = true;
      for (TaskId p : g.predecessors(cand)) {
        if (!placed[p]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        chosen = cand;
        break;
      }
    }
    const int p_t = alloc[chosen];

    std::vector<bool> holds_input(static_cast<std::size_t>(P), false);
    double producers_done = 0.0;
    double mean_redist = 0.0;
    for (TaskId q : g.predecessors(chosen)) {
      const auto& qp = s.placements[q];
      producers_done = std::max(producers_done, qp.est_finish);
      mean_redist +=
          cost.redist_time(g.task(q), static_cast<int>(qp.procs.size()), p_t);
      for (int pr : qp.procs) holds_input[static_cast<std::size_t>(pr)] = true;
    }
    if (!g.predecessors(chosen).empty()) {
      mean_redist /= static_cast<double>(g.predecessors(chosen).size());
    }
    // Processors sharing a rack with any input holder (of any
    // predecessor): the middle locality class of rack-aware mapping.
    std::vector<bool> holder_rack(static_cast<std::size_t>(P), false);
    if (rack_aware) {
      for (int pr = 0; pr < P; ++pr) {
        for (int h = 0; h < P && !holder_rack[static_cast<std::size_t>(pr)];
             ++h) {
          if (holds_input[static_cast<std::size_t>(h)] &&
              rack_of[static_cast<std::size_t>(h)] ==
                  rack_of[static_cast<std::size_t>(pr)]) {
            holder_rack[static_cast<std::size_t>(pr)] = true;
          }
        }
      }
    }

    auto data_ready_on = [&](const std::vector<int>& set) {
      double ready = 0.0;
      for (TaskId q : g.predecessors(chosen)) {
        const auto& qp = s.placements[q];
        const int p_q = static_cast<int>(qp.procs.size());
        double redist = cost.redist_time(g.task(q), p_q, p_t);
        if (redist_aware) {
          int overlap = 0;
          for (int pr : set) {
            if (std::find(qp.procs.begin(), qp.procs.end(), pr) !=
                qp.procs.end()) {
              ++overlap;
            }
          }
          // Set members sharing a rack with *this* predecessor's
          // processors; holders count fully, same-rack non-holders at the
          // sigma weight.
          int in_rack = 0;
          if (rack_aware) {
            for (int pr : set) {
              for (int qpr : qp.procs) {
                if (rack_of[static_cast<std::size_t>(pr)] ==
                    rack_of[static_cast<std::size_t>(qpr)]) {
                  ++in_rack;
                  break;
                }
              }
            }
          }
          const double overhead = cost.redist_overhead_time(p_q, p_t);
          const double payload = std::max(0.0, redist - overhead);
          double covered = static_cast<double>(overlap);
          if (rack_aware) {
            covered += sigma * static_cast<double>(in_rack - overlap);
          }
          const double remote_frac =
              1.0 - covered / static_cast<double>(p_t);
          redist = overhead + payload * remote_frac;
        }
        ready = std::max(ready, qp.est_finish + redist);
      }
      return ready;
    };
    auto start_on = [&](const std::vector<int>& set) {
      double avail = 0.0;
      for (int pr : set) {
        avail = std::max(avail, proc_ready[static_cast<std::size_t>(pr)]);
      }
      return std::max(data_ready_on(set), avail);
    };
    auto top_p = [&](auto&& less) {
      std::vector<int> all(static_cast<std::size_t>(P));
      std::iota(all.begin(), all.end(), 0);
      std::stable_sort(all.begin(), all.end(), less);
      all.resize(static_cast<std::size_t>(p_t));
      std::sort(all.begin(), all.end());
      return all;
    };

    auto est_set = top_p([&](int a, int b) {
      return proc_ready[static_cast<std::size_t>(a)] <
             proc_ready[static_cast<std::size_t>(b)];
    });

    std::vector<int> procs;
    if (strategy == MappingStrategy::EarliestStart) {
      procs = std::move(est_set);
    } else {
      auto loc_set = top_p([&](int a, int b) {
        auto score = [&](int pr) {
          const auto idx = static_cast<std::size_t>(pr);
          const double effective = std::max(proc_ready[idx], producers_done);
          const double bonus = holds_input[idx] ? mean_redist
                               : rack_aware && holder_rack[idx]
                                   ? sigma * mean_redist
                                   : 0.0;
          return effective - bonus;
        };
        const double sa = score(a);
        const double sb = score(b);
        if (sa != sb) return sa < sb;
        return proc_ready[static_cast<std::size_t>(a)] <
               proc_ready[static_cast<std::size_t>(b)];
      });
      procs = start_on(loc_set) < start_on(est_set) ? std::move(loc_set)
                                                    : std::move(est_set);
    }

    const double start = start_on(procs);
    const double finish = start + tau[chosen];

    auto& pl = s.placements[chosen];
    pl.procs = procs;
    pl.est_start = start;
    pl.est_finish = finish;
    for (int pr : procs) {
      proc_ready[static_cast<std::size_t>(pr)] = finish;
      s.proc_order[static_cast<std::size_t>(pr)].push_back(chosen);
    }
    placed[chosen] = true;
    s.est_makespan = std::max(s.est_makespan, finish);
  }
  return s;
}

void expect_schedules_identical(const Schedule& fast, const Schedule& ref,
                                const char* what) {
  ASSERT_EQ(fast.placements.size(), ref.placements.size()) << what;
  for (std::size_t t = 0; t < fast.placements.size(); ++t) {
    EXPECT_EQ(fast.placements[t].procs, ref.placements[t].procs)
        << what << " task " << t;
    // Exact double equality: the fast mapper must evaluate identical
    // expressions over identical operands, not merely agree to tolerance.
    EXPECT_EQ(fast.placements[t].est_start, ref.placements[t].est_start)
        << what << " task " << t;
    EXPECT_EQ(fast.placements[t].est_finish, ref.placements[t].est_finish)
        << what << " task " << t;
  }
  EXPECT_EQ(fast.proc_order, ref.proc_order) << what;
  EXPECT_EQ(fast.est_makespan, ref.est_makespan) << what;
}

/// Sweep: the ready-queue mapper reproduces the naive rescan reference
/// bit-for-bit on random DAGs, for both strategies. P = 70 exercises the
/// stamp-based overlap fallback (bitmask path covers P <= 64 only).
class MappingEquivalence : public ::testing::TestWithParam<int> {};

/// Sweep points below this use one matrix dim per DAG; this one spreads
/// its 182 tasks over 97 dims, so the redistribution memo sees more than
/// 64 shapes, most shared by several producers.
constexpr int kManyDimsPoint = 8;

Dag equivalence_dag(int i) {
  DagGenParams p;
  p.num_tasks = 30 + i * 19;
  p.width = 2 + i % 5;
  p.add_ratio = 0.4;
  p.matrix_dim = 1000 + 250 * (i % 4);
  p.seed = static_cast<std::uint64_t>(i) * 97 + 11;
  Dag g = generate_random_dag(p).graph;
  if (i != kManyDimsPoint) return g;
  Dag spread;
  for (const auto& t : g.tasks()) {
    spread.add_task(t.kernel, 1000 + 8 * static_cast<int>(t.id % 97), t.name);
  }
  for (const auto& e : g.edges()) spread.add_edge(e.src, e.dst);
  return spread;
}

TEST_P(MappingEquivalence, ReadyQueueMatchesNaiveReference) {
  const Dag g = equivalence_dag(GetParam());
  const VariedCost cost;
  for (int P : {4, 32, 70}) {
    const auto alloc = HcpaAllocator{}.allocate(g, cost, P);
    for (auto strategy : {MappingStrategy::EarliestStart,
                          MappingStrategy::RedistributionAware}) {
      const auto fast = ListMapper(strategy).map(g, alloc, cost, P);
      const auto ref = reference_list_map(g, alloc, cost, P, strategy);
      expect_schedules_identical(
          fast, ref,
          strategy == MappingStrategy::EarliestStart ? "earliest"
                                                     : "redist_aware");
    }
  }
}

TEST_P(MappingEquivalence, RackAwareMatchesNaiveReference) {
  // 5 racks x 14 nodes covers all three cluster sizes: P = 70 exercises
  // the stamp-based rack fallback (the bitmask path ends at P = 64). The
  // reference is fed the production mapper's own rack table and sigma.
  static const auto hier = mtsched::platform::to_cluster(
      mtsched::platform::hierarchical_topology(5, 14, 4.0));
  const ListMapper mapper(MappingStrategy::RackAware, hier);
  ASSERT_GT(mapper.rack_sigma(), 0.0);
  ASSERT_EQ(mapper.num_racks(), 5);
  std::vector<int> racks(static_cast<std::size_t>(hier.num_nodes));
  for (int pr = 0; pr < hier.num_nodes; ++pr) {
    racks[static_cast<std::size_t>(pr)] = mapper.rack_of(pr);
  }

  const Dag g = equivalence_dag(GetParam());
  const VariedCost cost;
  for (int P : {4, 32, 70}) {
    const auto alloc = HcpaAllocator{}.allocate(g, cost, P);
    const auto fast = mapper.map(g, alloc, cost, P);
    const auto ref =
        reference_list_map(g, alloc, cost, P, MappingStrategy::RackAware,
                           racks, mapper.rack_sigma());
    expect_schedules_identical(fast, ref, "rack_aware");
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDags, MappingEquivalence,
                         ::testing::Range(0, kManyDimsPoint + 1));

TEST(MapperRackAware, DegeneratesToRedistAwareOnStarPlatforms) {
  // Flat spec: sigma is 0, so RackAware must reproduce
  // RedistributionAware bit-for-bit.
  const ListMapper rack(MappingStrategy::RackAware,
                        mtsched::platform::bayreuth32());
  EXPECT_EQ(rack.rack_sigma(), 0.0);
  EXPECT_EQ(rack.num_racks(), 1);
  const ListMapper redist(MappingStrategy::RedistributionAware);
  const VariedCost cost;
  for (int param : {0, 3, 6}) {
    DagGenParams p;
    p.num_tasks = 30 + param * 19;
    p.width = 2 + param % 5;
    p.add_ratio = 0.4;
    p.seed = static_cast<std::uint64_t>(param) * 97 + 11;
    const auto inst = generate_random_dag(p);
    const auto alloc = HcpaAllocator{}.allocate(inst.graph, cost, 32);
    expect_schedules_identical(
        rack.map(inst.graph, alloc, cost, 32),
        redist.map(inst.graph, alloc, cost, 32), "flat degeneration");
  }
}

TEST(MapperRackAware, RackLocalityChangesSchedules) {
  // On an oversubscribed fabric the rack bonus must actually move some
  // placement — otherwise the strategy is dead code.
  static const auto hier = mtsched::platform::to_cluster(
      mtsched::platform::hierarchical_topology(4, 8, 16.0));
  const ListMapper rack(MappingStrategy::RackAware, hier);
  const ListMapper redist(MappingStrategy::RedistributionAware);
  const VariedCost cost;
  bool differs = false;
  for (int seed = 0; seed < 6 && !differs; ++seed) {
    DagGenParams p;
    p.num_tasks = 60;
    p.width = 4;
    p.add_ratio = 0.4;
    p.seed = static_cast<std::uint64_t>(seed) * 101 + 7;
    const auto inst = generate_random_dag(p);
    const auto alloc =
        HcpaAllocator{}.allocate(inst.graph, cost, hier.num_nodes);
    const auto a = rack.map(inst.graph, alloc, cost, hier.num_nodes);
    const auto b = redist.map(inst.graph, alloc, cost, hier.num_nodes);
    for (std::size_t t = 0; t < a.placements.size() && !differs; ++t) {
      differs = a.placements[t].procs != b.placements[t].procs;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(MapperRackAware, RackMetadataFollowsTopology) {
  static const auto hier = mtsched::platform::to_cluster(
      mtsched::platform::hierarchical_topology(2, 16, 4.0));
  const ListMapper mapper(MappingStrategy::RackAware, hier);
  EXPECT_EQ(mapper.num_racks(), 2);
  EXPECT_GT(mapper.rack_sigma(), 0.0);
  EXPECT_LT(mapper.rack_sigma(), 1.0);
  EXPECT_EQ(mapper.rack_of(0), 0);
  EXPECT_EQ(mapper.rack_of(15), 0);
  EXPECT_EQ(mapper.rack_of(16), 1);
  EXPECT_EQ(mapper.rack_of(31), 1);
  EXPECT_THROW(mapper.rack_of(32), InvalidArgument);
  EXPECT_THROW(mapper.rack_of(-1), InvalidArgument);
}

}  // namespace
