// Tests for cluster resource wiring and the L07-style parallel-task model.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/simcore/cluster_sim.hpp"

namespace {

using namespace mtsched::simcore;
using mtsched::core::InvalidArgument;

mtsched::platform::ClusterSpec tiny() {
  mtsched::platform::ClusterSpec c;
  c.name = "tiny";
  c.num_nodes = 4;
  c.node.flops = 100.0;           // 100 flop/s
  c.net.link_bandwidth = 10.0;    // 10 B/s
  c.net.link_latency = 0.5;
  c.net.backbone_bandwidth = 15.0;
  c.net.backbone_latency = 0.0;
  c.net.shared_backbone = true;
  return c;
}

TEST(ClusterSim, RegistersResourcesPerNode) {
  Engine e;
  ClusterSim cs(e, tiny());
  // 4 nodes x (cpu + up + down) + backbone.
  EXPECT_EQ(e.num_resources(), 13u);
  EXPECT_DOUBLE_EQ(e.capacity(cs.cpu(0)), 100.0);
  EXPECT_DOUBLE_EQ(e.capacity(cs.uplink(3)), 10.0);
  EXPECT_DOUBLE_EQ(e.capacity(cs.backbone()), 15.0);
  EXPECT_THROW(cs.cpu(4), InvalidArgument);
}

TEST(ClusterSim, NoBackboneResourceForNonBlockingSwitch) {
  auto spec = tiny();
  spec.net.shared_backbone = false;
  Engine e;
  ClusterSim cs(e, spec);
  EXPECT_EQ(e.num_resources(), 12u);
  EXPECT_THROW(cs.backbone(), InvalidArgument);
}

TEST(Ptask, ComputeOnlySoloDuration) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.flops = {200.0, 100.0};  // bottleneck: 200/100 = 2 s
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 2.0);
  double done = -1.0;
  cs.submit_ptask(t, [&](double when) { done = when; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 2.0);
}

TEST(Ptask, CommOnlyIncludesLatencyOnce) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.messages = {{0, 1, 30.0}};  // 30 B over 10 B/s links -> 3 s + 1 s latency
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 4.0);
  double done = -1.0;
  cs.submit_ptask(t, [&](double when) { done = when; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 4.0);
}

TEST(Ptask, ComputationAndCommunicationOverlap) {
  // L07: progress is bound by the bottleneck, not the sum.
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0, 1};
  t.flops = {500.0, 0.0};  // 5 s of compute on node 0
  t.messages = {{0, 1, 20.0}};  // 2 s of transfer
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 5.0 + 1.0);  // compute + latency
}

TEST(Ptask, LocalCopiesUseNoNetwork) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {2, 2};  // both ranks on node 2
  t.messages = {{0, 1, 1e9}};  // huge, but local
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 0.0);
}

TEST(Ptask, BackboneLimitsAggregateTraffic) {
  Engine e;
  ClusterSim cs(e, tiny());
  // Two disjoint transfers of 30 B each: links could carry both at 10 B/s,
  // but the 15 B/s backbone halves the rates.
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    Ptask t;
    t.host_of_rank = {i * 2, i * 2 + 1};
    t.messages = {{0, 1, 30.0}};
    cs.submit_ptask(t, [&](double when) { done.push_back(when); });
  }
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // 60 B total through 15 B/s backbone -> 4 s of transfer + 1 s latency.
  EXPECT_DOUBLE_EQ(done[0], 5.0);
  EXPECT_DOUBLE_EQ(done[1], 5.0);
}

TEST(Ptask, LinkContentionBetweenTransfersFromOneNode) {
  Engine e;
  ClusterSim cs(e, tiny());
  // Two transfers leaving node 0 share its uplink (10 B/s).
  std::vector<double> done;
  for (int dst : {1, 2}) {
    Ptask t;
    t.host_of_rank = {0, dst};
    t.messages = {{0, 1, 20.0}};
    cs.submit_ptask(t, [&](double when) { done.push_back(when); });
  }
  e.run();
  ASSERT_EQ(done.size(), 2u);
  // 40 B through the shared 10 B/s uplink -> 4 s + 1 s latency.
  EXPECT_DOUBLE_EQ(done[0], 5.0);
  EXPECT_DOUBLE_EQ(done[1], 5.0);
}

TEST(Ptask, MessagesFromOneRankSumOnItsUplink) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0, 1, 2};
  t.messages = {{0, 1, 20.0}, {0, 2, 20.0}};
  // 40 B leave node 0 through its 10 B/s uplink (the 15 B/s backbone is
  // not the bottleneck) -> 4 s + 1 s latency.
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 5.0);
}

TEST(Ptask, ValidationErrors) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);  // no ranks
  t.host_of_rank = {0, 9};  // bad node
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.host_of_rank = {0, 1};
  t.flops = {1.0};  // size mismatch
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.flops = {1.0, -1.0};  // negative
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.flops.clear();
  t.messages = {{0, 2, 1.0}};  // rank 2 does not exist
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.messages = {{-1, 1, 1.0}};
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.messages = {{0, 1, -1.0}};  // negative
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  t.messages = {{0, 1, 0.0}};  // an empty message is no communication
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 0.0);
}

TEST(RedistributionPtask, MapsByteMatrixAcrossPlacements) {
  // A redistribution from nodes {0, 1} to nodes {2, 3, 1}: source ranks
  // 0..1 come first, destination ranks follow from 2. Source rank 1 ->
  // destination rank 2 stays on node 1 and is a local copy.
  auto spec = tiny();
  spec.net.shared_backbone = false;
  Engine e;
  ClusterSim cs(e, spec);
  Ptask t;
  t.host_of_rank = {0, 1, 2, 3, 1};
  t.messages = {{0, 2, 50.0}, {1, 4, 70.0}};
  // Only node 0 -> node 2 crosses the network: 50 B at 10 B/s + 1 s.
  EXPECT_DOUBLE_EQ(cs.solo_duration(t), 6.0);
  cs.submit_ptask(t, nullptr);
  e.run();
  EXPECT_NEAR(e.resource_usage(cs.uplink(0)), 50.0, 1e-9);
  EXPECT_NEAR(e.resource_usage(cs.downlink(2)), 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(e.resource_usage(cs.uplink(1)), 0.0);
  EXPECT_DOUBLE_EQ(e.resource_usage(cs.downlink(1)), 0.0);
}

TEST(RedistributionPtask, ShapeMismatchThrows) {
  // A message to a destination rank past the placement is rejected.
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0, 1, 2};
  t.messages = {{0, 1, 5.0}, {0, 3, 5.0}};
  EXPECT_THROW(cs.submit_ptask(t, nullptr), InvalidArgument);
  EXPECT_THROW(cs.solo_duration(t), InvalidArgument);
}

TEST(Ptask, ZeroUsageCompletesInstantly) {
  Engine e;
  ClusterSim cs(e, tiny());
  Ptask t;
  t.host_of_rank = {0};
  double done = -1.0;
  cs.submit_ptask(t, [&](double when) { done = when; });
  e.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

}  // namespace
