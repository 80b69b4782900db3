#include "mtsched/sched/cost.hpp"

#include "mtsched/core/error.hpp"

namespace mtsched::sched {

CostCurveTable::CostCurveTable(const SchedCost& base, int P)
    : base_(base), procs_(static_cast<std::size_t>(P)) {
  MTSCHED_REQUIRE(P >= 1, "cluster must have at least one processor");
  startup_.resize(procs_);
  startup_filled_.assign(procs_, 0);
  overhead_.resize(procs_ * procs_);
  overhead_filled_.assign(procs_ * procs_, 0);
}

std::size_t CostCurveTable::shape_index(const dag::Task& t) const {
  const auto [it, fresh] = shape_of_.try_emplace(shape_key(t), shape_of_.size());
  if (fresh) {
    task_rows_.emplace_back();
    task_filled_.push_back(0);
    redist_rows_.resize(redist_rows_.size() + procs_);
    redist_filled_.resize(redist_filled_.size() + procs_, 0);
  }
  return it->second;
}

std::span<const double> CostCurveTable::task_row(const dag::Task& t) const {
  const std::size_t s = shape_index(t);
  if (!task_filled_[s]) {
    task_rows_[s].resize(procs_);
    base_.task_time_curve(t, task_rows_[s]);
    task_filled_[s] = 1;
    ++fills_;
  }
  return task_rows_[s];
}

std::span<const double> CostCurveTable::redist_row(const dag::Task& producer,
                                                   int p_src) const {
  const std::size_t row =
      shape_index(producer) * procs_ + static_cast<std::size_t>(p_src - 1);
  if (!redist_filled_[row]) {
    redist_rows_[row].resize(procs_);
    base_.redist_time_curve(producer, p_src, redist_rows_[row]);
    redist_filled_[row] = 1;
    ++fills_;
  }
  return redist_rows_[row];
}

double CostCurveTable::exec_time(const dag::Task& t, int p) const {
  // Scalar exec estimates bypass the table: every hot consumer reads
  // task_time_curve / redist curves, and exec_time alone (without the
  // startup share) has no batched base call to fill a row from.
  return base_.exec_time(t, p);
}

double CostCurveTable::startup_time(int p) const {
  const auto i = static_cast<std::size_t>(p - 1);
  if (!startup_filled_[i]) {
    startup_[i] = base_.startup_time(p);
    startup_filled_[i] = 1;
  }
  return startup_[i];
}

double CostCurveTable::redist_time(const dag::Task& producer, int p_src,
                                   int p_dst) const {
  return redist_row(producer, p_src)[static_cast<std::size_t>(p_dst - 1)];
}

double CostCurveTable::redist_overhead_time(int p_src, int p_dst) const {
  const std::size_t i = static_cast<std::size_t>(p_src - 1) * procs_ +
                        static_cast<std::size_t>(p_dst - 1);
  if (!overhead_filled_[i]) {
    overhead_[i] = base_.redist_overhead_time(p_src, p_dst);
    overhead_filled_[i] = 1;
  }
  return overhead_[i];
}

void CostCurveTable::task_time_curve(const dag::Task& t,
                                     std::span<double> out) const {
  const auto row = task_row(t);
  MTSCHED_REQUIRE(out.size() <= row.size(),
                  "task_time_curve query exceeds the table's P");
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = row[i];
}

void CostCurveTable::redist_time_curve(const dag::Task& producer, int p_src,
                                       std::span<double> out) const {
  const auto row = redist_row(producer, p_src);
  MTSCHED_REQUIRE(out.size() <= row.size(),
                  "redist_time_curve query exceeds the table's P");
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = row[i];
}

}  // namespace mtsched::sched
