// Tests for hierarchical network platforms: the Topology description and
// its route/uplink arithmetic, the mtsched.platform.v1 text format
// (round-trip property sweep, comments, boolean forms, parse errors, the
// retired flat format), the named platform registry, the
// one-rack-equals-star bit-identity bridge, and the hierarchical cluster
// simulation wiring.
#include "mtsched/platform/topology.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/core/rng.hpp"
#include "mtsched/platform/parser.hpp"
#include "mtsched/simcore/cluster_sim.hpp"

namespace {

using namespace mtsched::platform;
using mtsched::core::InvalidArgument;
using mtsched::core::ParseError;

/// Two tiny racks with hand-checkable numbers: 2 nodes each, 10 B/s node
/// links with 0.5 s latency, 40 B/s ToR and core fabrics.
Topology two_racks(double oversubscription) {
  Topology t;
  t.name = "tiny2x2";
  RackSpec r;
  r.nodes = 2;
  r.node_flops = 100.0;
  r.link_bandwidth = 10.0;
  r.link_latency = 0.5;
  r.tor_bandwidth = 40.0;
  r.tor_latency = 0.0;
  r.oversubscription = oversubscription;
  t.racks = {r, r};
  t.core.bandwidth = 40.0;
  t.core.latency = 0.0;
  return t;
}

TEST(Topology, NodeIndexingAndRackLookup) {
  const auto topo = hierarchical_topology(4, 8, 4.0);
  EXPECT_EQ(topo.num_nodes(), 32);
  EXPECT_EQ(topo.num_racks(), 4);
  EXPECT_FALSE(topo.reduces_to_star());
  EXPECT_EQ(topo.rack_of(0), 0);
  EXPECT_EQ(topo.rack_of(7), 0);
  EXPECT_EQ(topo.rack_of(8), 1);
  EXPECT_EQ(topo.rack_of(31), 3);
  EXPECT_THROW(topo.rack_of(32), InvalidArgument);
  EXPECT_THROW(topo.rack_of(-1), InvalidArgument);
  EXPECT_EQ(topo.first_node_of(0), 0);
  EXPECT_EQ(topo.first_node_of(3), 24);
  EXPECT_THROW(topo.first_node_of(4), InvalidArgument);
  EXPECT_DOUBLE_EQ(topo.flops_of(17), bayreuth32().node.flops);
}

TEST(Topology, RouteLatencyFormulas) {
  Topology t = two_racks(1.0);
  t.racks[0].link_latency = 1e-4;
  t.racks[0].tor_latency = 2e-5;
  t.racks[1].link_latency = 3e-4;
  t.racks[1].tor_latency = 4e-5;
  t.core.latency = 5e-5;
  // Same node: no network.
  EXPECT_DOUBLE_EQ(t.route_latency(1, 1), 0.0);
  // Intra-rack: the star expression over the rack's own link and ToR.
  EXPECT_DOUBLE_EQ(t.route_latency(0, 1), 2.0 * 1e-4 + 2e-5);
  EXPECT_DOUBLE_EQ(t.route_latency(2, 3), 2.0 * 3e-4 + 4e-5);
  // Cross-rack: src link + src ToR + core + dst ToR + dst link.
  const double cross = 1e-4 + 2e-5 + 5e-5 + 4e-5 + 3e-4;
  EXPECT_DOUBLE_EQ(t.route_latency(0, 2), cross);
  EXPECT_DOUBLE_EQ(t.route_latency(3, 1), cross);
  // The worst pair is what placement-blind estimators charge — here rack
  // 1's own intra-rack route, which beats the cross-rack path.
  EXPECT_DOUBLE_EQ(t.max_route_latency(), 2.0 * 3e-4 + 4e-5);
  t.racks[1].link_latency = 1e-4;  // now the cross-rack route dominates
  EXPECT_DOUBLE_EQ(t.max_route_latency(),
                   1e-4 + 2e-5 + 5e-5 + 4e-5 + 1e-4);
}

TEST(Topology, OversubscriptionDerivesUplink) {
  RackSpec r;
  r.nodes = 8;
  r.link_bandwidth = 125e6;
  r.oversubscription = 4.0;
  // nodes * link / ratio.
  EXPECT_DOUBLE_EQ(r.effective_uplink_bandwidth(), 8 * 125e6 / 4.0);
  // An explicit capacity overrides the derived value.
  r.uplink_bandwidth = 1e9;
  EXPECT_DOUBLE_EQ(r.effective_uplink_bandwidth(), 1e9);

  auto t = two_racks(4.0);  // derived uplinks: 2 * 10 / 4 = 5 B/s
  EXPECT_DOUBLE_EQ(t.min_uplink_bandwidth(), 5.0);
  t.racks[1].uplink_bandwidth = 2.0;  // explicitly slower
  EXPECT_DOUBLE_EQ(t.min_uplink_bandwidth(), 2.0);
}

TEST(Topology, ValidateCatchesNonPhysicalValues) {
  EXPECT_THROW(Topology{}.validate(), InvalidArgument);  // no racks

  auto bad = two_racks(1.0);
  bad.racks[0].nodes = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = two_racks(1.0);
  bad.racks[1].link_bandwidth = -1.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = two_racks(1.0);
  bad.racks[0].oversubscription = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = two_racks(1.0);
  bad.racks[0].node_speeds = {1.0};  // 1 entry for 2 nodes
  EXPECT_THROW(bad.validate(), InvalidArgument);

  bad = two_racks(1.0);
  bad.core.bandwidth = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);

  EXPECT_NO_THROW(two_racks(1.0).validate());
}

TEST(TopologyFormat, RoundTripsPresets) {
  for (const Topology& topo :
       {star_topology(bayreuth32()), star_topology(cray_xt4()),
        hierarchical_topology(2, 16, 1.0), hierarchical_topology(4, 8, 4.0),
        two_racks(4.0)}) {
    const auto text = to_text(topo);
    EXPECT_EQ(parse_topology(text), topo) << text;
    // Comments, blank lines and surrounding whitespace are insignificant.
    std::string annotated = "# generated\n\n";
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
      annotated += "  \t" + line + "   # note\n";
    }
    EXPECT_EQ(parse_topology(annotated), topo) << annotated;
  }
}

TEST(TopologyFormat, BooleanForms) {
  const auto parse = [](const std::string& core, const std::string& rack) {
    return parse_topology(std::string(kPlatformSchema) + "\n[core]\nshared = " +
                          core + "\n[rack]\nnodes = 2\nshared_tor = " +
                          rack + "\n");
  };
  EXPECT_TRUE(parse("true", "1").core.shared);
  EXPECT_TRUE(parse("true", "1").racks[0].shared_tor);
  EXPECT_FALSE(parse("false", "0").core.shared);
  EXPECT_FALSE(parse("false", "0").racks[0].shared_tor);
}

TEST(TopologyFormat, RoundTripPropertySweep) {
  // Random topologies — mixed rack shapes, explicit uplinks, per-node
  // speeds — must survive to_text -> parse_topology exactly (the writer
  // prints 17 significant digits, so doubles round-trip bit-for-bit).
  mtsched::core::Rng rng(20260808);
  for (int iter = 0; iter < 25; ++iter) {
    Topology t;
    t.name = "sweep" + std::to_string(iter);
    const int racks = static_cast<int>(rng.uniform_int(1, 5));
    for (int r = 0; r < racks; ++r) {
      RackSpec rack;
      rack.nodes = static_cast<int>(rng.uniform_int(1, 9));
      rack.node_flops = rng.uniform(1e6, 1e9);
      rack.link_bandwidth = rng.uniform(1e6, 1e9);
      rack.link_latency = rng.uniform(0.0, 1e-3);
      rack.tor_bandwidth = rng.uniform(1e8, 1e10);
      rack.tor_latency = rng.uniform(0.0, 1e-4);
      rack.shared_tor = rng.uniform() < 0.5;
      rack.oversubscription = rng.uniform(1.0, 64.0);
      if (rng.uniform() < 0.3) {
        rack.uplink_bandwidth = rng.uniform(1e6, 1e9);
      }
      if (rng.uniform() < 0.3) {
        for (int n = 0; n < rack.nodes; ++n) {
          rack.node_speeds.push_back(rng.uniform(1e6, 1e9));
        }
      }
      t.racks.push_back(std::move(rack));
    }
    t.core.bandwidth = rng.uniform(1e8, 1e10);
    t.core.latency = rng.uniform(0.0, 1e-4);
    t.core.shared = rng.uniform() < 0.5;
    const auto text = to_text(t);
    EXPECT_EQ(parse_topology(text), t) << text;
  }
}

TEST(TopologyFormat, CollapsesIdenticalRacksIntoCount) {
  const auto text = to_text(hierarchical_topology(4, 8, 4.0));
  EXPECT_NE(text.find("count = 4"), std::string::npos) << text;
  // One [rack] section, not four.
  EXPECT_EQ(text.find("[rack]"), text.rfind("[rack]")) << text;
}

TEST(TopologyFormat, ParseErrors) {
  // The v1 header is mandatory for parse_topology.
  EXPECT_THROW((void)parse_topology("name = x\n"), ParseError);
  const std::string head = "mtsched.platform.v1\n";
  EXPECT_THROW((void)parse_topology(head + "[rack\nnodes = 2\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "[flux]\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "nodes = 2\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\nwarp = 9\n"), ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\njust a line\n"),
               ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\nnodes = huge\n"),
               ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\nnodes = 2.5\n"),
               ParseError);
  EXPECT_THROW((void)parse_topology(head + "[rack]\ncount = 0\n"), ParseError);
  // Numbers are whole from_chars tokens; integer keys take no fraction or
  // exponent, and 1e300 is an error, not an out-of-range cast.
  for (const std::string bad :
       {"[rack]\nnodes = 1e300\n", "[rack]\nnodes = 32.0\n",
        "[rack]\nnodes = 1e1\n", "[rack]\nnodes = 4294967304\n",
        "[rack]\ncount = 2.0\n", "[rack]\nnode_flops = +1e9\n",
        "[rack]\nnode_flops = 1e9 x\n", "[rack]\nnode_flops = inf\n",
        "[rack]\nnode_speeds = 1e9 2e9x\n", "[core]\nlatency = nan\n"}) {
    try {
      (void)parse_topology(head + bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const ParseError& e) {
      const std::string key = bad.substr(bad.find('\n') + 1,
                                         bad.find(" =") - bad.find('\n') - 1);
      EXPECT_NE(std::string(e.what()).find("bad " + key + " '"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)parse_topology(head + "[core]\nshared = maybe\n"),
               ParseError);
  // Syntactically fine but non-physical: validation still runs.
  EXPECT_THROW((void)parse_topology(head + "[rack]\nnodes = 0\n"),
               InvalidArgument);
  // No racks at all.
  EXPECT_THROW((void)parse_topology(head + "name = empty\n"), InvalidArgument);
}

TEST(TopologyFormat, RejectsNodeTotalsAboveTheLimitBeforeExpanding) {
  const std::string head = "mtsched.platform.v1\n[rack]\n";
  // A hostile count is refused before any rack is copied.
  for (const std::string bad :
       {"count = 1000000000\nnodes = 8\n", "count = 2147483647\nnodes = 0\n",
        "count = 65537\nnodes = 1\n", "count = 2\nnodes = 40000\n",
        "count = 30000\nnodes = 1\nnode_speeds = 1 2 3\n",
        "count = 3\n[rack]\ncount = 65534\n"}) {
    EXPECT_THROW((void)parse_topology(head + bad), ParseError) << bad;
  }
  // Exactly at the limit still parses.
  const auto topo = parse_topology(head + "count = 256\nnodes = 256\n");
  EXPECT_EQ(topo.num_nodes(), kMaxPlatformNodes);
}

TEST(PlatformFormat, ParsesV1AndRejectsTheFlatFormat) {
  const auto v1 = parse_platform(to_text(hierarchical_topology(4, 8, 4.0)));
  ASSERT_NE(v1.topology, nullptr);
  EXPECT_TRUE(v1.hierarchical());
  EXPECT_EQ(v1.num_nodes, 32);

  // The headerless flat key = value format is no longer read; a flat
  // platform is written as its one-rack star topology instead.
  EXPECT_THROW((void)parse_platform("name = flatfile\nnodes = 8\n"),
               ParseError);
  const auto star = parse_platform(to_text(star_topology(bayreuth32())));
  EXPECT_FALSE(star.hierarchical());
  EXPECT_EQ(star.num_nodes, 32);
}

TEST(PlatformNames, RegistryIsCompleteAndRejectsUnknown) {
  for (const auto& name : named_platform_names()) {
    const auto spec = named_platform(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_EQ(spec->name, name == "hier1x32" ? "hier1x32" : spec->name);
    EXPECT_NO_THROW(spec->validate()) << name;
  }
  EXPECT_FALSE(named_platform("nosuch").has_value());
  EXPECT_FALSE(named_platform("").has_value());

  // The hier platforms carry topologies; only the multi-rack ones are
  // hierarchical in the simulator's sense.
  EXPECT_EQ(named_platform("bayreuth32")->topology, nullptr);
  ASSERT_NE(named_platform("hier1x32")->topology, nullptr);
  EXPECT_FALSE(named_platform("hier1x32")->hierarchical());
  EXPECT_TRUE(named_platform("hier2x16")->hierarchical());
  EXPECT_TRUE(named_platform("hier4x8")->hierarchical());
}

TEST(TopologyCluster, OneRackFlattensToExactStarFields) {
  const auto star = bayreuth32();
  const auto spec = to_cluster(star_topology(star));
  EXPECT_FALSE(spec.hierarchical());
  EXPECT_EQ(spec.num_nodes, star.num_nodes);
  EXPECT_EQ(spec.node.flops, star.node.flops);
  EXPECT_EQ(spec.net.link_bandwidth, star.net.link_bandwidth);
  EXPECT_EQ(spec.net.link_latency, star.net.link_latency);
  EXPECT_EQ(spec.net.backbone_bandwidth, star.net.backbone_bandwidth);
  EXPECT_EQ(spec.net.backbone_latency, star.net.backbone_latency);
  EXPECT_EQ(spec.net.shared_backbone, star.net.shared_backbone);
  // Route latencies agree bit-for-bit with the star formula.
  EXPECT_EQ(spec.route_latency(0, 1), star.route_latency());
  EXPECT_EQ(spec.max_route_latency(), star.max_route_latency());
}

TEST(TopologyCluster, MultiRackFlatViewUsesCoreAsBackbone) {
  auto topo = two_racks(4.0);
  topo.racks[1].node_flops = 50.0;  // heterogeneous across racks
  const auto spec = to_cluster(topo);
  EXPECT_TRUE(spec.hierarchical());
  EXPECT_EQ(spec.num_nodes, 4);
  EXPECT_DOUBLE_EQ(spec.net.backbone_bandwidth, topo.core.bandwidth);
  // Rack speeds flatten into per-node speeds; rack 0 is the reference.
  ASSERT_EQ(spec.node_speeds.size(), 4u);
  EXPECT_DOUBLE_EQ(spec.flops_of(1), 100.0);
  EXPECT_DOUBLE_EQ(spec.flops_of(2), 50.0);
  // Per-node route latencies come from the attached topology.
  EXPECT_DOUBLE_EQ(spec.route_latency(0, 1), topo.route_latency(0, 1));
  EXPECT_DOUBLE_EQ(spec.route_latency(0, 3), topo.route_latency(0, 3));
}

TEST(TopologySim, OneRackSimulationIsBitIdenticalToStar) {
  // The bit-identity bridge, observed end to end: the same ptask mix on a
  // flat spec and its one-rack topology twin finishes at *identical*
  // doubles, and the engine holds the same resources.
  mtsched::platform::ClusterSpec flat;
  flat.name = "tiny";
  flat.num_nodes = 4;
  flat.node.flops = 100.0;
  flat.net.link_bandwidth = 10.0;
  flat.net.link_latency = 0.5;
  flat.net.backbone_bandwidth = 15.0;
  const auto one_rack = to_cluster(star_topology(flat));

  std::vector<double> done_flat, done_rack;
  for (int variant = 0; variant < 2; ++variant) {
    const auto& spec = variant == 0 ? flat : one_rack;
    auto& done = variant == 0 ? done_flat : done_rack;
    mtsched::simcore::Engine e;
    mtsched::simcore::ClusterSim cs(e, spec);
    EXPECT_FALSE(cs.hierarchical());
    EXPECT_EQ(e.num_resources(), 13u);  // 4 x (cpu, up, down) + backbone

    mtsched::simcore::Ptask compute;
    compute.host_of_rank = {0, 1};
    compute.flops = {200.0, 100.0};
    mtsched::simcore::Ptask transfer;
    transfer.host_of_rank = {1, 2};
    transfer.messages = {{0, 1, 30.0}};
    cs.submit_ptask(compute, [&](double when) { done.push_back(when); });
    cs.submit_ptask(transfer, [&](double when) { done.push_back(when); });
    e.run();
  }
  ASSERT_EQ(done_flat.size(), 2u);
  // Exact equality, not tolerance: this is the star bit-identity contract.
  EXPECT_EQ(done_flat, done_rack);
}

TEST(TopologySim, CrossRackTransfersPayTheOversubscribedUplink) {
  // two_racks(4.0): node links 10 B/s, derived uplinks 2*10/4 = 5 B/s.
  // Intra-rack latency 2*0.5 = 1 s; cross-rack 0.5 + 0 + 0 + 0 + 0.5 = 1 s.
  const auto spec = to_cluster(two_racks(4.0));
  mtsched::simcore::Engine e;
  mtsched::simcore::ClusterSim cs(e, spec);
  ASSERT_TRUE(cs.hierarchical());

  mtsched::simcore::Ptask intra;
  intra.host_of_rank = {0, 1};
  intra.messages = {{0, 1, 30.0}};
  mtsched::simcore::Ptask cross = intra;
  cross.host_of_rank = {0, 2};

  // Intra-rack: the 10 B/s node links bound -> 30/10 + 1 = 4 s.
  EXPECT_DOUBLE_EQ(cs.solo_duration(intra), 4.0);
  // Cross-rack: the 5 B/s uplink bounds -> 30/5 + 1 = 7 s.
  EXPECT_DOUBLE_EQ(cs.solo_duration(cross), 7.0);

  // At 1:1 the uplink (20 B/s) no longer binds and cross == intra.
  mtsched::simcore::Engine e1;
  mtsched::simcore::ClusterSim cs1(e1, to_cluster(two_racks(1.0)));
  EXPECT_DOUBLE_EQ(cs1.solo_duration(cross), cs1.solo_duration(intra));

  // The engine runs agree with the solo estimates.
  double when_cross = -1.0;
  cs.submit_ptask(cross, [&](double when) { when_cross = when; });
  e.run();
  EXPECT_DOUBLE_EQ(when_cross, 7.0);
}

TEST(TopologySim, HierarchicalWiringExposesRackResources) {
  const auto spec = to_cluster(two_racks(4.0));
  mtsched::simcore::Engine e;
  mtsched::simcore::ClusterSim cs(e, spec);
  ASSERT_TRUE(cs.hierarchical());
  EXPECT_EQ(cs.rack_of(0), 0);
  EXPECT_EQ(cs.rack_of(1), 0);
  EXPECT_EQ(cs.rack_of(2), 1);
  EXPECT_EQ(cs.rack_of(3), 1);
  EXPECT_THROW(cs.rack_of(4), InvalidArgument);
  for (int rack = 0; rack < 2; ++rack) {
    EXPECT_DOUBLE_EQ(e.capacity(cs.tor(rack)), 40.0);
    EXPECT_DOUBLE_EQ(e.capacity(cs.rack_uplink(rack)), 5.0);
    EXPECT_DOUBLE_EQ(e.capacity(cs.rack_downlink(rack)), 5.0);
  }
  ASSERT_TRUE(cs.has_core());
  EXPECT_DOUBLE_EQ(e.capacity(cs.core_switch()), 40.0);
  // Star-only accessors are off limits on hierarchical sims.
  EXPECT_FALSE(cs.has_backbone());
  EXPECT_THROW(cs.backbone(), InvalidArgument);
}

}  // namespace
