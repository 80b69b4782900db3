// Tests for platform descriptions and the platform file parser.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/platform/cluster.hpp"
#include "mtsched/platform/parser.hpp"

namespace {

using namespace mtsched::platform;
using mtsched::core::InvalidArgument;
using mtsched::core::ParseError;

TEST(Presets, Bayreuth32MatchesThePaper) {
  const auto c = bayreuth32();
  EXPECT_EQ(c.num_nodes, 32);
  EXPECT_DOUBLE_EQ(c.node.flops, 250e6);             // Java MM calibration
  EXPECT_DOUBLE_EQ(c.net.link_bandwidth, 125e6);     // 1 Gb/s
  EXPECT_DOUBLE_EQ(c.net.link_latency, 100e-6);      // 100 us
  EXPECT_TRUE(c.net.shared_backbone);
  EXPECT_NO_THROW(c.validate());
}

TEST(Presets, CrayXt4MatchesFigure2) {
  const auto c = cray_xt4();
  EXPECT_DOUBLE_EQ(c.node.flops, 4165.3e6);  // PDGEMM rate on Franklin
  EXPECT_FALSE(c.net.shared_backbone);
  EXPECT_NO_THROW(c.validate());
}

TEST(RouteLatency, TwoLinksPlusBackbone) {
  ClusterSpec c = bayreuth32();
  c.net.link_latency = 1e-4;
  c.net.backbone_latency = 5e-5;
  EXPECT_DOUBLE_EQ(c.route_latency(), 2.5e-4);
}

TEST(Validate, CatchesNonPhysicalValues) {
  ClusterSpec c = bayreuth32();
  c.num_nodes = 0;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = bayreuth32();
  c.node.flops = -1;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = bayreuth32();
  c.net.link_bandwidth = 0;
  EXPECT_THROW(c.validate(), InvalidArgument);
  c = bayreuth32();
  c.net.link_latency = -1e-6;
  EXPECT_THROW(c.validate(), InvalidArgument);
}

const std::string kHead = std::string(kPlatformSchema) + "\n";

TEST(Parser, RoundTripsPresets) {
  // A flat preset is the one-rack topology star_topology builds from it.
  for (const auto& spec : {bayreuth32(), cray_xt4()}) {
    const auto parsed = parse_platform(to_text(star_topology(spec)));
    ASSERT_NE(parsed.topology, nullptr);
    EXPECT_FALSE(parsed.hierarchical());
    EXPECT_EQ(parsed.name, spec.name);
    EXPECT_EQ(parsed.num_nodes, spec.num_nodes);
    EXPECT_DOUBLE_EQ(parsed.node.flops, spec.node.flops);
    EXPECT_DOUBLE_EQ(parsed.net.link_bandwidth, spec.net.link_bandwidth);
    EXPECT_DOUBLE_EQ(parsed.net.link_latency, spec.net.link_latency);
    EXPECT_DOUBLE_EQ(parsed.net.backbone_bandwidth,
                     spec.net.backbone_bandwidth);
    EXPECT_EQ(parsed.net.shared_backbone, spec.net.shared_backbone);
  }
}

TEST(Parser, AcceptsCommentsAndWhitespace) {
  const auto c = parse_platform(
      "# my cluster\n" + kHead +
      "  name = test   # trailing comment\n"
      "[rack]\n"
      "\tnodes = 8\n"
      "node_flops = 1e9\n");
  EXPECT_EQ(c.name, "test");
  EXPECT_EQ(c.num_nodes, 8);
  EXPECT_DOUBLE_EQ(c.node.flops, 1e9);
}

TEST(Parser, MissingKeysKeepDefaults) {
  const auto c = parse_platform(kHead + "[rack]\nnodes = 4\n");
  EXPECT_EQ(c.num_nodes, 4);
  EXPECT_DOUBLE_EQ(c.node.flops, RackSpec{}.node_flops);
}

TEST(Parser, RejectsUnknownKey) {
  EXPECT_THROW(parse_platform(kHead + "[rack]\ncores = 4\n"), ParseError);
}

TEST(Parser, RejectsMalformedValue) {
  EXPECT_THROW(parse_platform(kHead + "[rack]\nnodes = four\n"), ParseError);
  EXPECT_THROW(parse_platform(kHead + "[rack]\nshared_tor = maybe\n"),
               ParseError);
  EXPECT_THROW(parse_platform(kHead + "[rack]\njust a line\n"), ParseError);
}

TEST(Parser, BooleanForms) {
  // A one-rack platform's shared ToR is the flat view's shared backbone.
  const auto shared = [](const std::string& value) {
    return parse_platform(kHead + "[rack]\nnodes = 2\nshared_tor = " + value +
                          "\n")
        .net.shared_backbone;
  };
  EXPECT_TRUE(shared("true"));
  EXPECT_TRUE(shared("1"));
  EXPECT_FALSE(shared("false"));
  EXPECT_FALSE(shared("0"));
}

TEST(Parser, ValidatesResult) {
  EXPECT_THROW(parse_platform(kHead + "[rack]\nnodes = 0\n"),
               InvalidArgument);
}

}  // namespace
