#include "mtsched/models/cost_model.hpp"

#include <algorithm>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/topology.hpp"
#include "mtsched/redist/plan.hpp"

namespace mtsched::models {

CostModel::CostModel(platform::ClusterSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

double redist_payload_estimate(const platform::ClusterSpec& spec, int n,
                               int p_src, int p_dst) {
  const auto plan = redist::plan_block_redistribution(n, p_src, p_dst);
  std::vector<double> out(static_cast<std::size_t>(p_src), 0.0);
  std::vector<double> in(static_cast<std::size_t>(p_dst), 0.0);
  for (const auto& m : plan.messages) {
    out[static_cast<std::size_t>(m.src)] += m.bytes;
    in[static_cast<std::size_t>(m.dst)] += m.bytes;
  }
  const double max_out = *std::max_element(out.begin(), out.end());
  const double max_in = *std::max_element(in.begin(), in.end());
  double t = std::max(max_out, max_in) / spec.net.link_bandwidth;
  if (spec.net.shared_backbone) {
    t = std::max(t, plan.total_bytes() / spec.net.backbone_bandwidth);
  }
  if (spec.hierarchical()) {
    // Placement-blind worst case: source and destination live in
    // different racks, so the whole payload crosses a rack uplink.
    t = std::max(t,
                 plan.total_bytes() / spec.topology->min_uplink_bandwidth());
  }
  return t + spec.max_route_latency();
}

double CostModel::redist_estimate(const dag::Task& producer, int p_src,
                                  int p_dst) const {
  return redist_overhead(p_src, p_dst) +
         redist_payload_estimate(spec_, producer.matrix_dim, p_src, p_dst);
}

}  // namespace mtsched::models
