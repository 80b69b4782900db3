// Cost oracle consulted by the scheduling algorithms.
//
// In the paper the schedulers run *inside the simulator* and therefore see
// the world through whatever cost model the simulator uses (analytical,
// profile-based or empirical). This interface is that lens; adapters over
// the concrete simulator cost models live in mtsched::models.
#pragma once

#include <cstdint>
#include <span>

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

}  // namespace mtsched::sched
