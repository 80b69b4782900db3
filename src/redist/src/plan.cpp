#include "mtsched/redist/plan.hpp"

#include "mtsched/core/units.hpp"
#include "mtsched/redist/layout.hpp"

namespace mtsched::redist {

double RedistPlan::total_bytes() const {
  double total = 0.0;
  for (const auto& m : messages) total += m.bytes;
  return total;
}

RedistPlan plan_block_redistribution(int n, int p_src, int p_dst) {
  const BlockLayout1D src(n, p_src);
  const BlockLayout1D dst(n, p_dst);
  RedistPlan plan;
  plan.messages.reserve(static_cast<std::size_t>(p_src + p_dst - 1));
  const double col_bytes = static_cast<double>(n) * core::kElemBytes;
  // Both layouts cut [0, n) into non-empty contiguous blocks (p <= n). The
  // block that ends first overlaps no later block of the other layout, so
  // advancing it visits exactly the overlapping (i, j) pairs. Both indices
  // only grow, which emits the messages in row-major order.
  int i = 0, j = 0;
  while (i < p_src && j < p_dst) {
    const auto s = src.columns_of(i);
    const auto d = dst.columns_of(j);
    plan.messages.push_back(
        {i, j, static_cast<double>(interval_overlap(s, d)) * col_bytes});
    if (s.second <= d.second) ++i;
    if (d.second <= s.second) ++j;
  }
  return plan;
}

}  // namespace mtsched::redist
