#include "mtsched/simcore/cluster_sim.hpp"

#include <algorithm>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/topology.hpp"

namespace mtsched::simcore {

ClusterSim::ClusterSim(Engine& engine, const platform::ClusterSpec& spec)
    : engine_(engine), spec_(spec) {
  spec_.validate();
  if (spec_.hierarchical()) {
    const platform::Topology& topo = *spec_.topology;
    const std::size_t racks = topo.racks.size();
    int node = 0;
    for (std::size_t r = 0; r < racks; ++r) {
      const platform::RackSpec& rk = topo.racks[r];
      for (int k = 0; k < rk.nodes; ++k, ++node) {
        const std::string tag = std::to_string(node);
        cpus_.push_back(engine_.add_resource(spec_.flops_of(node),
                                             "cpu" + tag));
        up_.push_back(engine_.add_resource(rk.link_bandwidth, "up" + tag));
        down_.push_back(engine_.add_resource(rk.link_bandwidth,
                                             "down" + tag));
        rack_of_.push_back(static_cast<int>(r));
      }
      const std::string rtag = std::to_string(r);
      tor_.push_back(rk.shared_tor
                         ? engine_.add_resource(rk.tor_bandwidth, "tor" + rtag)
                         : static_cast<ResourceId>(-1));
      torup_.push_back(engine_.add_resource(rk.effective_uplink_bandwidth(),
                                            "torup" + rtag));
      tordown_.push_back(engine_.add_resource(rk.effective_uplink_bandwidth(),
                                              "tordown" + rtag));
    }
    has_core_ = topo.core.shared;
    if (has_core_) {
      core_ = engine_.add_resource(topo.core.bandwidth, "core");
    }
    // Precompute per-rack-pair route latencies (same expressions as
    // Topology::route_latency, hoisted out of build_uses).
    rack_lat_.assign(racks * racks, 0.0);
    for (std::size_t a = 0; a < racks; ++a) {
      for (std::size_t b = 0; b < racks; ++b) {
        rack_lat_[a * racks + b] =
            a == b ? 2.0 * topo.racks[a].link_latency + topo.racks[a].tor_latency
                   : topo.racks[a].link_latency + topo.racks[a].tor_latency +
                         topo.core.latency + topo.racks[b].tor_latency +
                         topo.racks[b].link_latency;
      }
    }
    return;
  }
  for (int i = 0; i < spec_.num_nodes; ++i) {
    const std::string tag = std::to_string(i);
    cpus_.push_back(engine_.add_resource(spec_.flops_of(i), "cpu" + tag));
    up_.push_back(engine_.add_resource(spec_.net.link_bandwidth, "up" + tag));
    down_.push_back(
        engine_.add_resource(spec_.net.link_bandwidth, "down" + tag));
  }
  if (spec_.net.shared_backbone) {
    backbone_ = engine_.add_resource(spec_.net.backbone_bandwidth, "backbone");
  }
}

ResourceId ClusterSim::cpu(int node) const {
  MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes, "node out of range");
  return cpus_[static_cast<std::size_t>(node)];
}

ResourceId ClusterSim::uplink(int node) const {
  MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes, "node out of range");
  return up_[static_cast<std::size_t>(node)];
}

ResourceId ClusterSim::downlink(int node) const {
  MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes, "node out of range");
  return down_[static_cast<std::size_t>(node)];
}

ResourceId ClusterSim::backbone() const {
  MTSCHED_REQUIRE(has_backbone(),
                  "platform has a non-blocking switch (no backbone resource)");
  return backbone_;
}

int ClusterSim::rack_of(int node) const {
  MTSCHED_REQUIRE(hierarchical(), "star platform has no racks");
  MTSCHED_REQUIRE(node >= 0 && node < spec_.num_nodes, "node out of range");
  return rack_of_[static_cast<std::size_t>(node)];
}

ResourceId ClusterSim::tor(int rack) const {
  MTSCHED_REQUIRE(rack >= 0 && rack < static_cast<int>(tor_.size()),
                  "rack out of range");
  const ResourceId id = tor_[static_cast<std::size_t>(rack)];
  MTSCHED_REQUIRE(id != static_cast<ResourceId>(-1),
                  "rack has a non-blocking ToR (no fabric resource)");
  return id;
}

ResourceId ClusterSim::rack_uplink(int rack) const {
  MTSCHED_REQUIRE(rack >= 0 && rack < static_cast<int>(torup_.size()),
                  "rack out of range");
  return torup_[static_cast<std::size_t>(rack)];
}

ResourceId ClusterSim::rack_downlink(int rack) const {
  MTSCHED_REQUIRE(rack >= 0 && rack < static_cast<int>(tordown_.size()),
                  "rack out of range");
  return tordown_[static_cast<std::size_t>(rack)];
}

bool ClusterSim::has_core() const { return has_core_; }

ResourceId ClusterSim::core_switch() const {
  MTSCHED_REQUIRE(has_core_,
                  "platform has a non-blocking core (no fabric resource)");
  return core_;
}

std::pair<std::vector<Use>, double> ClusterSim::build_uses(
    const Ptask& task) const {
  const std::size_t p = task.host_of_rank.size();
  MTSCHED_REQUIRE(p > 0, "ptask needs at least one rank");
  for (int h : task.host_of_rank) {
    MTSCHED_REQUIRE(h >= 0 && h < spec_.num_nodes, "ptask host out of range");
  }
  MTSCHED_REQUIRE(task.flops.empty() || task.flops.size() == p,
                  "flops vector size must match rank count");

  // The L07 activity has amount 1 and weights equal to the absolute
  // flop/byte totals per resource. Each total is summed from +0.0 in the
  // order its terms are charged; every term is > 0, so a resource joins
  // `uses` on its first charge.
  std::vector<double> weight(engine_.num_resources(), 0.0);
  std::vector<Use> uses;
  const auto charge = [&](ResourceId r, double w) {
    if (weight[r] == 0.0) uses.push_back(Use{r, 0.0});
    weight[r] += w;
  };
  for (std::size_t r = 0; r < task.flops.size(); ++r) {
    MTSCHED_REQUIRE(task.flops[r] >= 0.0, "flops must be >= 0");
    if (task.flops[r] > 0.0) charge(cpu(task.host_of_rank[r]), task.flops[r]);
  }
  bool any_remote_comm = false;
  const bool hier = hierarchical();
  const std::size_t racks = tor_.size();
  double hier_latency = 0.0;
  for (const core::Message& m : task.messages) {
    MTSCHED_REQUIRE(m.src >= 0 && static_cast<std::size_t>(m.src) < p &&
                        m.dst >= 0 && static_cast<std::size_t>(m.dst) < p,
                    "message rank out of range");
    MTSCHED_REQUIRE(m.bytes >= 0.0, "bytes must be >= 0");
    const double b = m.bytes;
    if (b <= 0.0) continue;
    const int src = task.host_of_rank[static_cast<std::size_t>(m.src)];
    const int dst = task.host_of_rank[static_cast<std::size_t>(m.dst)];
    if (src == dst) continue;  // local copy, no network usage
    any_remote_comm = true;
    charge(up_[static_cast<std::size_t>(src)], b);
    charge(down_[static_cast<std::size_t>(dst)], b);
    if (!hier) {
      if (spec_.net.shared_backbone) charge(backbone_, b);
      continue;
    }
    // Charge every link on the route: ToR fabric(s) when shared, and for
    // cross-rack transfers the uplink, core and downlink.
    const auto ra = static_cast<std::size_t>(rack_of_[src]);
    const auto rb = static_cast<std::size_t>(rack_of_[dst]);
    if (tor_[ra] != static_cast<ResourceId>(-1)) charge(tor_[ra], b);
    if (ra != rb) {
      charge(torup_[ra], b);
      if (has_core_) charge(core_, b);
      charge(tordown_[rb], b);
      if (tor_[rb] != static_cast<ResourceId>(-1)) charge(tor_[rb], b);
    }
    hier_latency = std::max(hier_latency, rack_lat_[ra * racks + rb]);
  }
  std::sort(uses.begin(), uses.end(), [](const Use& x, const Use& y) {
    return x.resource < y.resource;
  });
  for (Use& u : uses) u.weight = weight[u.resource];
  // L07 charges the route latency once; with distinct routes we charge the
  // slowest route used — the one the last byte may traverse.
  const double latency =
      hier ? hier_latency : (any_remote_comm ? spec_.route_latency() : 0.0);
  return {std::move(uses), latency};
}

ActivityId ClusterSim::submit_ptask(const Ptask& task,
                                    CompletionFn on_complete) {
  auto [uses, latency] = build_uses(task);
  // Empty usage (zero flops, zero bytes) degenerates to an instant timer.
  const double amount = uses.empty() ? 0.0 : 1.0;
  return engine_.submit(std::move(uses), amount, latency,
                        std::move(on_complete), task.name);
}

double ClusterSim::solo_duration(const Ptask& task) const {
  auto [uses, latency] = build_uses(task);
  double bottleneck = 0.0;
  for (const auto& u : uses) {
    bottleneck = std::max(bottleneck, u.weight / engine_.capacity(u.resource));
  }
  return bottleneck + latency;
}

}  // namespace mtsched::simcore
