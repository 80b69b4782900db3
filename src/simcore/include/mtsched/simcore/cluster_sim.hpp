// Cluster resource wiring and the parallel-task (Ptask_L07-style) model.
//
// Maps a platform::ClusterSpec onto engine resources:
//   * one compute resource per node (capacity = flop/s),
//   * one uplink and one downlink resource per node (capacity = bytes/s,
//     full duplex as in SimGrid's cluster model),
//   * optionally one shared backbone resource for the switch fabric.
//
// Hierarchical platforms (spec.hierarchical(), i.e. an attached
// multi-rack platform::Topology) expand into the full link graph instead:
// per-node cpu/up/down as above, plus per rack an optional shared ToR
// fabric resource and a full-duplex uplink/downlink pair into the core,
// and optionally a shared core fabric. A transfer's bytes are charged to
// every link on its route, so the max-min engine shares bandwidth per
// link and redistribution cost becomes placement-dependent. One-rack
// topologies take the star path and stay bit-identical to flat specs.
//
// A parallel task is described exactly as in the paper's Section IV: a
// computation vector `a` (flops per participating rank) and a communication
// matrix `B`, kept as the list of its non-zero messages (core::Message).
// Submitting it creates one fluid activity whose usage weights are the
// per-resource byte and flop totals and whose work amount is 1 — so
// computation and communication progress in lockstep and overlap fully,
// bounded by the bottleneck resource, with the route latency charged once.
// These are the L07 semantics.
#pragma once

#include <string>
#include <vector>

#include "mtsched/core/message.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/simcore/engine.hpp"

namespace mtsched::simcore {

/// A parallel task instance placed on concrete nodes.
struct Ptask {
  /// Node id hosting each rank. Communication endpoints refer to ranks.
  std::vector<int> host_of_rank;
  /// Flops to execute per rank; empty means no computation. If non-empty,
  /// size must equal host_of_rank.size().
  std::vector<double> flops;
  /// Messages between ranks (indices into host_of_rank), in row-major
  /// (src, dst) order; empty means no communication. Transfers between
  /// ranks mapped to the same node are local copies and use no network
  /// resource.
  std::vector<core::Message> messages;
  std::string name;
};

class ClusterSim {
 public:
  /// Registers all resources of `spec` with `engine`. Both references must
  /// outlive this object.
  ClusterSim(Engine& engine, const platform::ClusterSpec& spec);

  const platform::ClusterSpec& spec() const { return spec_; }
  Engine& engine() { return engine_; }

  ResourceId cpu(int node) const;
  ResourceId uplink(int node) const;
  ResourceId downlink(int node) const;
  /// Star platforms only (hierarchical specs expand per-link resources).
  bool has_backbone() const {
    return !hierarchical() && spec_.net.shared_backbone;
  }
  ResourceId backbone() const;

  /// True when the spec carries a multi-rack topology and this sim wired
  /// the full link graph (per-rack ToR/uplink/core resources).
  bool hierarchical() const { return !rack_of_.empty(); }
  /// Rack owning `node` (hierarchical sims only).
  int rack_of(int node) const;
  /// The rack's shared ToR fabric; only valid when the rack's ToR is
  /// shared (throws otherwise).
  ResourceId tor(int rack) const;
  /// The rack's core uplink / downlink resources.
  ResourceId rack_uplink(int rack) const;
  ResourceId rack_downlink(int rack) const;
  bool has_core() const;
  ResourceId core_switch() const;

  /// Submits a parallel task; `on_complete` fires when all of its
  /// computation and communication has finished. Returns the activity id.
  /// Throws core::InvalidArgument on malformed ptasks (bad node ids or
  /// ranks, size mismatches, negative entries).
  ActivityId submit_ptask(const Ptask& task, CompletionFn on_complete);

  /// The duration the ptask would take if it ran alone on the cluster
  /// (bottleneck formula + latency). Useful for cost estimation.
  double solo_duration(const Ptask& task) const;

 private:
  /// Aggregates a ptask into usage weights (sorted by resource id) and its
  /// latency term.
  std::pair<std::vector<Use>, double> build_uses(const Ptask& task) const;

  Engine& engine_;
  platform::ClusterSpec spec_;
  std::vector<ResourceId> cpus_;
  std::vector<ResourceId> up_;
  std::vector<ResourceId> down_;
  ResourceId backbone_ = static_cast<ResourceId>(-1);
  // Hierarchical wiring (empty / invalid on star platforms).
  std::vector<int> rack_of_;        ///< node -> rack
  std::vector<ResourceId> tor_;     ///< per rack; invalid if not shared
  std::vector<ResourceId> torup_;   ///< per rack: uplink into the core
  std::vector<ResourceId> tordown_; ///< per rack: downlink from the core
  std::vector<double> rack_lat_;    ///< (racks x racks) route latencies
  ResourceId core_ = static_cast<ResourceId>(-1);
  bool has_core_ = false;
};

}  // namespace mtsched::simcore
