// Cost oracle consulted by the scheduling algorithms.
//
// In the paper the schedulers run *inside the simulator* and therefore see
// the world through whatever cost model the simulator uses (analytical,
// profile-based or empirical). This interface is that lens; adapters over
// the concrete simulator cost models live in mtsched::models.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "mtsched/dag/dag.hpp"

namespace mtsched::sched {

/// A task's shape, (kernel, matrix_dim) packed into one key: the only
/// view of a task that SchedCost estimates may depend on, and so the key
/// every cost memo shares entries on.
inline std::uint64_t shape_key(const dag::Task& t) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(t.kernel))
          << 32) |
         static_cast<std::uint32_t>(t.matrix_dim);
}

class SchedCost {
 public:
  virtual ~SchedCost() = default;

  /// Estimated execution time of task t on p processors (excluding task
  /// startup overhead). Must be positive for all 1 <= p <= P.
  virtual double exec_time(const dag::Task& t, int p) const = 0;

  /// Estimated task startup overhead for an allocation of p processors
  /// (zero under the purely analytical model).
  virtual double startup_time(int p) const = 0;

  /// Estimated time to redistribute `producer`'s output matrix from p_src
  /// to p_dst processors (payload plus protocol overhead, as far as the
  /// model knows about either). The estimate may read the producer only
  /// through its kernel and matrix_dim (the shape of its output matrix):
  /// the schedulers memoize redistribution estimates on that key and
  /// reuse them across same-shaped producers.
  virtual double redist_time(const dag::Task& producer, int p_src,
                             int p_dst) const = 0;

  /// The protocol-overhead share of redist_time (zero under the purely
  /// analytical model). Redistribution-aware mapping discounts the payload
  /// share when processor sets overlap, but never the protocol share.
  virtual double redist_overhead_time(int p_src, int p_dst) const {
    (void)p_src;
    (void)p_dst;
    return 0.0;
  }

  /// Total per-task time the allocation phase reasons about.
  double task_time(const dag::Task& t, int p) const {
    return exec_time(t, p) + startup_time(p);
  }

  /// Batched task-time curve: fills out[p - 1] with task_time(t, p) for
  /// p = 1..out.size() in one virtual call. Every entry must be
  /// bit-identical to the scalar task_time — overriding models may only
  /// batch the lookup, never change the arithmetic. The p-sweeps of the
  /// allocation phase (TaskTimeMemo) and of MHEFT consume this.
  virtual void task_time_curve(const dag::Task& t,
                               std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = task_time(t, static_cast<int>(i) + 1);
    }
  }

  /// Batched redistribution curve over the destination size: fills
  /// out[p - 1] with redist_time(producer, p_src, p) for
  /// p = 1..out.size(). Same bit-identity contract as task_time_curve.
  virtual void redist_time_curve(const dag::Task& producer, int p_src,
                                 std::span<double> out) const {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = redist_time(producer, p_src, static_cast<int>(i) + 1);
    }
  }
};

/// Shared cost-curve table over a base SchedCost: every distinct
/// (kernel, matrix_dim) task-time curve, (kernel, matrix_dim, p_src)
/// redistribution curve and startup/overhead point is resolved against
/// the base model once and then served from the table, no matter how many
/// tasks — across how many DAGs — share the shape. This is what makes
/// batch scheduling (exp::Session::BatchScope) cheap: a Table-I-style
/// suite has thousands of tasks but only a handful of shapes, so the
/// second and later DAGs never touch the underlying model.
///
/// Correctness rests on the SchedCost shape-purity contract (estimates
/// may read a task only through kernel + matrix_dim) plus the curve
/// bit-identity contract, so served values are bit-identical to direct
/// base-model calls. Not thread-safe: one table per batch-serving thread.
class CostCurveTable final : public SchedCost {
 public:
  /// `base` must outlive the table; `P` bounds the processor counts the
  /// batch will ever query (curves are cached at that length).
  CostCurveTable(const SchedCost& base, int P);

  double exec_time(const dag::Task& t, int p) const override;
  double startup_time(int p) const override;
  double redist_time(const dag::Task& producer, int p_src,
                     int p_dst) const override;
  double redist_overhead_time(int p_src, int p_dst) const override;
  void task_time_curve(const dag::Task& t,
                       std::span<double> out) const override;
  void redist_time_curve(const dag::Task& producer, int p_src,
                         std::span<double> out) const override;

  /// Distinct (kernel, matrix_dim) shapes seen so far.
  std::size_t num_shapes() const { return shape_of_.size(); }
  /// Base-model curve resolutions performed (cache misses).
  std::uint64_t curve_fills() const { return fills_; }

 private:
  std::size_t shape_index(const dag::Task& t) const;
  std::span<const double> task_row(const dag::Task& t) const;
  std::span<const double> redist_row(const dag::Task& producer,
                                     int p_src) const;

  const SchedCost& base_;
  std::size_t procs_;
  /// (kernel, dim) packed to a 64-bit key -> dense shape index.
  mutable std::unordered_map<std::uint64_t, std::size_t> shape_of_;
  mutable std::vector<std::vector<double>> task_rows_;   ///< per shape, P wide
  mutable std::vector<std::vector<double>> redist_rows_; ///< shape * P rows
  mutable std::vector<std::uint8_t> task_filled_;
  mutable std::vector<std::uint8_t> redist_filled_;
  mutable std::vector<double> startup_;       ///< per p, lazily filled
  mutable std::vector<std::uint8_t> startup_filled_;
  mutable std::vector<double> overhead_;      ///< P * P, lazily filled
  mutable std::vector<std::uint8_t> overhead_filled_;
  mutable std::uint64_t fills_ = 0;
};

}  // namespace mtsched::sched
