#include "mtsched/sched/allocation.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/obs/trace.hpp"

namespace mtsched::sched {

namespace {

constexpr double kEps = 1e-12;

/// Per-task times under the current allocation.
std::vector<double> task_times(const dag::Dag& g, const SchedCost& cost,
                               const std::vector<int>& alloc) {
  std::vector<double> tau(g.num_tasks());
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    tau[t] = cost.task_time(g.task(t), alloc[t]);
    MTSCHED_INVARIANT(tau[t] > 0.0, "task time must be positive");
  }
  return tau;
}

/// Memoized cost.task_time(t, p) curve. CPA's candidate scan re-queries
/// the same critical-path points every growth iteration and HCPA's
/// efficiency envelope re-evaluates the same (t, p) pairs; cost models
/// are pure functions of (task, p), so the first query for a task fills
/// its whole p = 1..P row with one batched task_time_curve call and
/// every later query is an array load. Curve entries are bit-identical
/// to the scalar task_time by the SchedCost contract.
class TaskTimeMemo {
 public:
  TaskTimeMemo(const dag::Dag& g, const SchedCost& cost, int P)
      : g_(g),
        cost_(cost),
        stride_(static_cast<std::size_t>(P)),
        memo_(g.num_tasks() * stride_),
        filled_(g.num_tasks()) {}

  /// tau(t, p) for p in [1, P].
  double operator()(dag::TaskId t, int p) const {
    return row(t)[static_cast<std::size_t>(p - 1)];
  }

  /// The whole tau(t, 1..P) curve.
  std::span<const double> row(dag::TaskId t) const {
    double* r = memo_.data() + t * stride_;
    if (!filled_[t]) {
      cost_.task_time_curve(g_.task(t), {r, stride_});
      filled_[t] = 1;
    }
    return {r, stride_};
  }

 private:
  const dag::Dag& g_;
  const SchedCost& cost_;
  std::size_t stride_;
  // Filled lazily behind the const interface.
  mutable std::vector<double> memo_;
  mutable std::vector<std::uint8_t> filled_;
};

/// Top/bottom levels with zero edge weights (classic CPA uses computation
/// times only during allocation), maintained incrementally: after a single
/// task's tau changes, only tasks whose level actually moves are revisited
/// — descendants for top levels, ancestors for bottom levels. Every
/// recomputed level evaluates the exact expressions of the full
/// rebuild over the same operands, so the incremental values are
/// bit-identical to recomputing from scratch.
class LevelTracker {
 public:
  explicit LevelTracker(const dag::Dag& g)
      : order_(g.topology().order),
        pos_(g.topology().positions),
        pred_off_(g.topology().pred_offsets),
        pred_(g.topology().preds),
        succ_off_(g.topology().succ_offsets),
        succ_(g.topology().succs),
        top_(g.num_tasks()),
        bottom_(g.num_tasks()),
        dirty_(g.num_tasks()) {
    // The flat CSR adjacency and topological positions are the Dag's
    // cached ones — the relaxation loops below are the hot spot and must
    // not pay vector-of-vector indirection, but the arrays only depend
    // on the immutable structure, so every tracker shares them.
  }

  void rebuild(std::span<const double> tau) {
    std::fill(top_.begin(), top_.end(), 0.0);
    for (const dag::TaskId t : order_) {
      double nt = 0.0;
      for (std::size_t e = pred_off_[t]; e < pred_off_[t + 1]; ++e) {
        const dag::TaskId p = pred_[e];
        nt = std::max(nt, top_[p] + tau[p]);
      }
      top_[t] = nt;
    }
    t_cp_ = 0.0;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      const dag::TaskId t = *it;
      double nb = tau[t];
      for (std::size_t e = succ_off_[t]; e < succ_off_[t + 1]; ++e) {
        nb = std::max(nb, tau[t] + bottom_[succ_[e]]);
      }
      bottom_[t] = nb;
      t_cp_ = std::max(t_cp_, top_[t] + bottom_[t]);
    }
  }

  /// Refreshes the levels after tau[changed] was updated. Dirty tasks are
  /// visited by sweeping topological positions (ascending for top levels,
  /// descending for bottom levels) over a dirty-flag array: a successor is
  /// always at a higher position than its predecessor, so one directional
  /// sweep settles every affected task, and tasks whose recomputed level
  /// is unchanged stop the propagation.
  void update(dag::TaskId changed, std::span<const double> tau) {
    const std::size_t n = pos_.size();
    // Downstream: top levels of affected descendants.
    std::size_t lo = n, hi = 0;
    for (std::size_t e = succ_off_[changed]; e < succ_off_[changed + 1];
         ++e) {
      const std::size_t sp = pos_[succ_[e]];
      dirty_[sp] = 1;
      lo = std::min(lo, sp);
      hi = std::max(hi, sp + 1);
    }
    for (std::size_t i = lo; i < hi; ++i) {
      if (!dirty_[i]) continue;
      dirty_[i] = 0;
      const dag::TaskId t = order_[i];
      double nt = 0.0;
      for (std::size_t e = pred_off_[t]; e < pred_off_[t + 1]; ++e) {
        const dag::TaskId p = pred_[e];
        nt = std::max(nt, top_[p] + tau[p]);
      }
      if (nt != top_[t]) {
        top_[t] = nt;
        for (std::size_t e = succ_off_[t]; e < succ_off_[t + 1]; ++e) {
          const std::size_t sp = pos_[succ_[e]];
          dirty_[sp] = 1;
          hi = std::max(hi, sp + 1);
        }
      }
    }
    // Upstream: bottom level of the changed task itself, then affected
    // ancestors.
    std::size_t up_hi = pos_[changed];
    std::size_t up_lo = up_hi;
    dirty_[up_hi] = 1;
    for (std::size_t i = up_hi + 1; i-- > up_lo;) {
      if (!dirty_[i]) continue;
      dirty_[i] = 0;
      const dag::TaskId t = order_[i];
      double nb = tau[t];
      for (std::size_t e = succ_off_[t]; e < succ_off_[t + 1]; ++e) {
        nb = std::max(nb, tau[t] + bottom_[succ_[e]]);
      }
      if (nb != bottom_[t]) {
        bottom_[t] = nb;
        for (std::size_t e = pred_off_[t]; e < pred_off_[t + 1]; ++e) {
          up_lo = std::min(up_lo, pos_[pred_[e]]);
          dirty_[pos_[pred_[e]]] = 1;
        }
      }
    }
    // The critical path is a plain max over the refreshed levels — exact
    // and order-independent, so the O(n) scan needs no bookkeeping.
    t_cp_ = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      t_cp_ = std::max(t_cp_, top_[t] + bottom_[t]);
    }
  }

  double top(dag::TaskId t) const { return top_[t]; }
  double bottom(dag::TaskId t) const { return bottom_[t]; }
  double t_cp() const { return t_cp_; }

 private:
  // All adjacency views are cached in (and shared with) the Dag.
  const std::vector<dag::TaskId>& order_;
  const std::vector<std::size_t>& pos_;
  const std::vector<std::size_t>& pred_off_;
  const std::vector<dag::TaskId>& pred_;
  const std::vector<std::size_t>& succ_off_;
  const std::vector<dag::TaskId>& succ_;
  std::vector<double> top_;     ///< longest path length ending before t
  std::vector<double> bottom_;  ///< longest path length from t inclusive
  double t_cp_ = 0.0;
  std::vector<std::uint8_t> dirty_;  ///< indexed by topological position
};

double average_area(const dag::Dag& g, const SchedCost& cost,
                    const std::vector<int>& alloc, int P) {
  double area = 0.0;
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    area += static_cast<double>(alloc[t]) * cost.task_time(g.task(t), alloc[t]);
  }
  return area / static_cast<double>(P);
}

/// Growth gate customization point for the three algorithms. `may_grow`
/// must be a pure predicate; `on_grow` is invoked once per actual growth.
using GrowGate = std::function<bool(dag::TaskId, int /*new_p*/)>;
using OnGrow = std::function<void(dag::TaskId)>;

std::vector<int> cpa_skeleton(const dag::Dag& g, int P, const TaskTimeMemo& tt,
                              const GrowGate& may_grow,
                              const OnGrow& on_grow = {}) {
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  MTSCHED_REQUIRE(g.num_tasks() > 0, "cannot allocate an empty DAG");
  const std::size_t n = g.num_tasks();
  std::vector<int> alloc(n, 1);
  std::vector<double> tau(n);
  for (dag::TaskId t = 0; t < n; ++t) {
    tau[t] = tt(t, 1);
    MTSCHED_INVARIANT(tau[t] > 0.0, "task time must be positive");
  }
  LevelTracker lv(g);
  lv.rebuild(tau);
  // Average-area terms alloc[t] * tau(t, alloc[t]); only the grown task's
  // term changes per iteration, but t_a is still the same ordered sum the
  // term-by-term recomputation produced.
  std::vector<double> area_term(n);
  for (dag::TaskId t = 0; t < n; ++t) {
    area_term[t] = static_cast<double>(alloc[t]) * tau[t];
  }
  // Delta-maintained running total of the area terms. It only *screens*
  // the work-bound test: the break decision itself always re-derives t_a
  // from the exact left-to-right sum, but when t_cp clears the threshold
  // by more than a 1e-6 relative margin — many orders of magnitude above
  // the accumulated float divergence between the running total and the
  // exact sum (~iterations * ulp) — the break provably cannot fire and
  // the O(n) re-sum is skipped. Large DAGs spend almost every growth
  // iteration far above the threshold, so the per-iteration cost drops
  // to the candidate scan and the incremental level refresh.
  double area_run = 0.0;
  for (dag::TaskId t = 0; t < n; ++t) area_run += area_term[t];

  // Each iteration adds one processor to one task; the loop is bounded by
  // the total allocation head-room.
  const std::size_t max_iter = n * static_cast<std::size_t>(P);
  for (std::size_t iter = 0; iter < max_iter; ++iter) {
    const double t_cp = lv.t_cp();
    if (t_cp * static_cast<double>(P) <=
        area_run * (1.0 + 1e-6) + static_cast<double>(P) * kEps) {
      double area = 0.0;
      for (dag::TaskId t = 0; t < n; ++t) area += area_term[t];
      const double t_a = area / static_cast<double>(P);
      if (t_cp <= t_a + kEps) break;  // work-bound: stop growing
    }

    // Candidate: the critical-path task with the largest gain. As in the
    // original CPA, the gain may be small or even negative on bumpy cost
    // curves — the loop is driven by the T_CP/T_A criterion alone, which
    // is exactly how CPA comes to over-allocate.
    dag::TaskId best = dag::kInvalidTask;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (dag::TaskId t = 0; t < n; ++t) {
      if (lv.top(t) + lv.bottom(t) < t_cp - 1e-9 * t_cp) continue;
      if (alloc[t] >= P) continue;
      const int np = alloc[t] + 1;
      if (!may_grow(t, np)) continue;
      const double tau_new = tt(t, np);
      const double gain = tau[t] / static_cast<double>(alloc[t]) -
                          tau_new / static_cast<double>(np);
      if (gain > best_gain + kEps) {
        best_gain = gain;
        best = t;
      }
    }
    if (best == dag::kInvalidTask) break;  // nothing can usefully grow
    alloc[best] += 1;
    tau[best] = tt(best, alloc[best]);
    const double new_term = static_cast<double>(alloc[best]) * tau[best];
    area_run += new_term - area_term[best];
    area_term[best] = new_term;
    lv.update(best, tau);
    if (on_grow) on_grow(best);
  }
  return alloc;
}

}  // namespace

CpaMetrics cpa_metrics(const dag::Dag& g, const SchedCost& cost,
                       const std::vector<int>& alloc, int P) {
  MTSCHED_REQUIRE(alloc.size() == g.num_tasks(),
                  "allocation vector size mismatch");
  const auto tau = task_times(g, cost, alloc);
  LevelTracker lv(g);
  lv.rebuild(tau);
  CpaMetrics m;
  m.t_cp = lv.t_cp();
  m.t_a = average_area(g, cost, alloc, P);
  return m;
}

std::vector<int> CpaAllocator::allocate(const dag::Dag& g,
                                        const SchedCost& cost, int P) const {
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           {{"tasks", std::to_string(g.num_tasks())},
                            {"P", std::to_string(P)}});
  const TaskTimeMemo tt(g, cost, P);
  return cpa_skeleton(g, P, tt, [](dag::TaskId, int) { return true; });
}

HcpaAllocator::HcpaAllocator(double min_efficiency)
    : min_efficiency_(min_efficiency) {
  MTSCHED_REQUIRE(min_efficiency > 0.0 && min_efficiency <= 1.0,
                  "min_efficiency must be in (0, 1]");
}

std::vector<int> HcpaAllocator::allocate(const dag::Dag& g,
                                         const SchedCost& cost, int P) const {
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           {{"tasks", std::to_string(g.num_tasks())},
                            {"P", std::to_string(P)}});
  // Self-constrained cap: no task may use more than ceil(P / omega)
  // processors, where omega is the DAG's maximum precedence-level width —
  // enough processors always remain for the task parallelism the DAG can
  // offer. The cap binds under every cost model, including the analytical
  // one whose ideal speedup curves never trip the efficiency gate; this is
  // what makes HCPA's allocations structurally smaller than MCPA's.
  const auto& levels = g.precedence_levels();
  std::vector<int> width(static_cast<std::size_t>(g.num_levels()), 0);
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    ++width[static_cast<std::size_t>(levels[t])];
  }
  const int omega = *std::max_element(width.begin(), width.end());
  const int cap = std::max(
      1, static_cast<int>(std::ceil(static_cast<double>(P) /
                                    static_cast<double>(omega))));
  const TaskTimeMemo tt(g, cost, P);
  const double min_eff = min_efficiency_;
  return cpa_skeleton(g, P, tt, [&](dag::TaskId t, int np) {
    if (np > cap) return false;
    // Envelope check: growth stops only on *sustained* inefficiency. A
    // single inefficient point (e.g. a p = 8 cache outlier in a profiled
    // cost curve) does not wall off all larger allocations.
    const auto eff = [&](int p) {
      return tt(t, 1) / (static_cast<double>(p) * tt(t, p));
    };
    if (eff(np) >= min_eff) return true;
    return np < P && eff(np + 1) >= min_eff;
  });
}

std::vector<int> McpaAllocator::allocate(const dag::Dag& g,
                                         const SchedCost& cost, int P) const {
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           {{"tasks", std::to_string(g.num_tasks())},
                            {"P", std::to_string(P)}});
  const auto& level = g.precedence_levels();
  const int num_levels = g.num_levels();
  // Running total allocation per precedence level (starts at one processor
  // per task, matching the skeleton's initial allocation).
  std::vector<int> level_total(static_cast<std::size_t>(num_levels), 0);
  for (dag::TaskId t = 0; t < g.num_tasks(); ++t) {
    ++level_total[static_cast<std::size_t>(level[t])];
  }
  const TaskTimeMemo tt(g, cost, P);
  return cpa_skeleton(
      g, P, tt,
      [&](dag::TaskId t, int) {
        return level_total[static_cast<std::size_t>(level[t])] < P;
      },
      [&](dag::TaskId t) {
        ++level_total[static_cast<std::size_t>(level[t])];
      });
}

std::vector<int> SerialAllocator::allocate(const dag::Dag& g,
                                           const SchedCost& cost,
                                           int P) const {
  (void)cost;
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           {{"tasks", std::to_string(g.num_tasks())},
                            {"P", std::to_string(P)}});
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  return std::vector<int>(g.num_tasks(), 1);
}

std::vector<int> MaxParAllocator::allocate(const dag::Dag& g,
                                           const SchedCost& cost,
                                           int P) const {
  (void)cost;
  const obs::Span obs_span(obs::current_track(), "sched",
                           "allocate:" + name(),
                           {{"tasks", std::to_string(g.num_tasks())},
                            {"P", std::to_string(P)}});
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  return std::vector<int>(g.num_tasks(), P);
}

std::unique_ptr<Allocator> make_allocator(const std::string& name) {
  if (name == "CPA") return std::make_unique<CpaAllocator>();
  if (name == "HCPA") return std::make_unique<HcpaAllocator>();
  if (name == "MCPA") return std::make_unique<McpaAllocator>();
  if (name == "SEQ") return std::make_unique<SerialAllocator>();
  if (name == "MAXPAR") return std::make_unique<MaxParAllocator>();
  throw core::InvalidArgument("unknown allocator '" + name + "'");
}

}  // namespace mtsched::sched
