// Shared internals of the ready-queue list schedulers (ListMapper, MHEFT,
// HeteroListMapper).
//
// All three walk the same structure: rank tasks by decreasing bottom
// level, then repeatedly place the highest-ranked task whose predecessors
// are all placed. The naive form rescans the whole priority list per
// placement (O(T^2)); here readiness is tracked by predecessor counts and
// the next task comes from a min-heap keyed by list rank, which pops
// exactly the task the rescan would have picked, in O(log W) for W
// concurrently ready tasks.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <unordered_map>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/dag.hpp"
#include "mtsched/sched/cost.hpp"

namespace mtsched::sched::detail {

/// Computation-only bottom levels (bl[t] = tau[t] + max bl over
/// successors), evaluated over the Dag's cached topological order and CSR
/// adjacency. Successors are folded in the same per-task order as
/// Dag::successors(), so every max chain sees identical operands in
/// identical order as the adjacency-list walk it replaces.
inline std::vector<double> bottom_levels(const dag::Dag& g,
                                         std::span<const double> tau) {
  const auto topo = g.topology();
  std::vector<double> bl(g.num_tasks());
  for (auto it = topo.order.rbegin(); it != topo.order.rend(); ++it) {
    const dag::TaskId t = *it;
    double b = tau[t];
    for (std::size_t e = topo.succ_offsets[t]; e < topo.succ_offsets[t + 1];
         ++e) {
      b = std::max(b, tau[t] + bl[topo.succs[e]]);
    }
    bl[t] = b;
  }
  return bl;
}

/// List priorities: decreasing bottom level, ties by task id. The id
/// tie-break makes the comparator a strict total order, so plain sort
/// yields the unique stable ranking.
inline std::vector<dag::TaskId> priority_order(std::span<const double> bl) {
  std::vector<dag::TaskId> order(bl.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](dag::TaskId a, dag::TaskId b) {
    if (bl[a] != bl[b]) return bl[a] > bl[b];
    return a < b;
  });
  return order;
}

/// Indegree-tracked ready queue over a fixed priority list. pop() returns
/// the first task in priority order whose predecessors have all been
/// marked placed — the same selection as rescanning the list, without the
/// rescan. The heap is reserved to the task count up front so the queue
/// never allocates after construction. `priority` must outlive the queue.
class ReadyQueue {
 public:
  ReadyQueue(const dag::Dag& g, std::span<const dag::TaskId> priority)
      : topo_(g.topology()),
        priority_(priority),
        rank_(priority.size()),
        waiting_preds_(priority.size()) {
    const std::size_t n = priority.size();
    heap_.reserve(n);
    for (std::size_t r = 0; r < n; ++r) rank_[priority[r]] = r;
    for (dag::TaskId t = 0; t < n; ++t) {
      waiting_preds_[t] = topo_.pred_offsets[t + 1] - topo_.pred_offsets[t];
      if (waiting_preds_[t] == 0) push(rank_[t]);
    }
  }

  /// Highest-priority dependency-ready task. Throws if none is ready
  /// although unplaced tasks remain (cannot happen on an acyclic graph).
  dag::TaskId pop() {
    MTSCHED_INVARIANT(!heap_.empty(),
                      "no ready task although tasks remain (cycle?)");
    const dag::TaskId t = priority_[heap_[0]];
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.pop_back();
    return t;
  }

  /// Marks `t` placed, releasing successors whose predecessors are now
  /// all placed into the queue.
  void mark_placed(dag::TaskId t) {
    for (std::size_t e = topo_.succ_offsets[t]; e < topo_.succ_offsets[t + 1];
         ++e) {
      const dag::TaskId s = topo_.succs[e];
      if (--waiting_preds_[s] == 0) push(rank_[s]);
    }
  }

 private:
  void push(std::size_t rank) {
    heap_.push_back(rank);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }

  dag::Dag::TopologyView topo_;
  std::span<const dag::TaskId> priority_;
  std::vector<std::size_t> rank_;
  std::vector<std::size_t> waiting_preds_;
  // Min-heap over ranks (std::*_heap with greater<>), identical pop order
  // to the std::priority_queue it replaces.
  std::vector<std::size_t> heap_;
};

/// Memoized cost.redist_time values. A redistribution estimate may read
/// the producer only through (kernel, matrix_dim) — the SchedCost
/// contract — so estimates are shared across same-shaped producers and
/// every (shape, p_src, p_dst) triple is evaluated at most once per
/// mapping run. The refined models' estimates build a full block
/// redistribution plan per evaluation, which made repeated scalar calls
/// the dominant cost of the mapping phase.
class RedistMemo {
 public:
  RedistMemo(const dag::Dag& g, const SchedCost& cost, int P)
      : g_(g), cost_(cost), procs_(static_cast<std::size_t>(P)) {
    // Dense task -> shape index, so a row key is one array load away.
    std::unordered_map<std::uint64_t, std::size_t> index;
    shape_of_.reserve(g.num_tasks());
    for (const auto& t : g.tasks()) {
      shape_of_.push_back(
          index.try_emplace(shape_key(t), index.size()).first->second);
    }
  }

  /// redist_time(producer, p_src, p_dst), evaluated on first use.
  double operator()(dag::TaskId producer, int p_src, int p_dst) const {
    double& slot = row(producer, p_src)
                       .values[static_cast<std::size_t>(p_dst - 1)];
    if (std::isnan(slot)) {
      slot = cost_.redist_time(g_.task(producer), p_src, p_dst);
    }
    return slot;
  }

  /// The p_dst = 1..len prefix of the curve, fetched with one batched
  /// redist_time_curve call on first use (entries are bit-identical to
  /// the scalar calls by the SchedCost contract). The span stays valid
  /// for the memo's lifetime.
  std::span<const double> curve(dag::TaskId producer, int p_src,
                                std::size_t len) const {
    Row& r = row(producer, p_src);
    if (r.filled < len) {
      cost_.redist_time_curve(g_.task(producer), p_src, {r.values.data(), len});
      r.filled = len;
    }
    return {r.values.data(), len};
  }

 private:
  struct Row {
    std::vector<double> values;  ///< indexed by p_dst - 1; NaN = not yet
    std::size_t filled = 0;      ///< prefix filled by curve()
  };

  /// The (shape, p_src) row of `producer`, allocated on first use: a
  /// DAG may carry a distinct shape per task, so memory must grow with
  /// the rows a run touches, not with shapes * P. Map nodes and row
  /// buffers never move, which keeps curve() spans valid.
  Row& row(dag::TaskId producer, int p_src) const {
    const auto [it, fresh] = rows_.try_emplace(
        shape_of_[producer] * procs_ + static_cast<std::size_t>(p_src - 1));
    if (fresh) {
      it->second.values.assign(procs_,
                               std::numeric_limits<double>::quiet_NaN());
    }
    return it->second;
  }

  const dag::Dag& g_;
  const SchedCost& cost_;
  std::size_t procs_;
  std::vector<std::size_t> shape_of_;  ///< per task: dense shape index
  mutable std::unordered_map<std::size_t, Row> rows_;
};

}  // namespace mtsched::sched::detail
