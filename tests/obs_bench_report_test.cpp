// Tests for the machine-readable benchmark report (BENCH_<name>.json):
// deterministic serialization and a faithful round trip through the
// shared JSON parser.
#include <gtest/gtest.h>

#include "mtsched/core/error.hpp"
#include "mtsched/obs/bench_report.hpp"

namespace {

using namespace mtsched::obs;

BenchReport sample() {
  BenchReport r;
  r.name = "micro_sched";
  r.wall_seconds = 1.25;
  r.metrics["campaign.jobs"] = 108;
  r.metrics["campaign.cache_hits"] = 54;
  r.metrics["trace.events"] = 0;
  r.throughput.push_back({"BM_Allocation/cpa/10", 1.5e-4, 66666.5});
  r.throughput.push_back({"BM_TwoStepPipeline/50", 0.02, 0.0});
  return r;
}

TEST(BenchReport, RoundTripsThroughJson) {
  const auto original = sample();
  const auto parsed = BenchReport::from_json(original.to_json());
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_DOUBLE_EQ(parsed.wall_seconds, original.wall_seconds);
  EXPECT_EQ(parsed.metrics, original.metrics);
  ASSERT_EQ(parsed.throughput.size(), 2u);
  EXPECT_EQ(parsed.throughput[0].name, "BM_Allocation/cpa/10");
  EXPECT_DOUBLE_EQ(parsed.throughput[0].seconds_per_iteration, 1.5e-4);
  EXPECT_DOUBLE_EQ(parsed.throughput[0].items_per_second, 66666.5);
  EXPECT_DOUBLE_EQ(parsed.throughput[1].items_per_second, 0.0);
  // Equal reports serialize byte-identically.
  EXPECT_EQ(parsed.to_json(), original.to_json());
}

TEST(BenchReport, EmptyReportRoundTrips) {
  BenchReport r;
  r.name = "empty";
  const auto parsed = BenchReport::from_json(r.to_json());
  EXPECT_EQ(parsed.name, "empty");
  EXPECT_TRUE(parsed.metrics.empty());
  EXPECT_TRUE(parsed.throughput.empty());
}

TEST(BenchReport, SchemaIsStamped) {
  EXPECT_NE(sample().to_json().find("\"schema\": \"mtsched.bench.v1\""),
            std::string::npos);
}

TEST(BenchReport, RejectsWrongOrMissingSchema) {
  EXPECT_THROW(BenchReport::from_json("{\"schema\": \"other.v9\"}"),
               mtsched::core::ParseError);
  EXPECT_THROW(BenchReport::from_json("{\"name\": \"x\"}"),
               mtsched::core::ParseError);
  EXPECT_THROW(BenchReport::from_json("not json"),
               mtsched::core::ParseError);
}

TEST(BenchReport, FilenameFollowsConvention) {
  EXPECT_EQ(sample().filename(), "BENCH_micro_sched.json");
}

}  // namespace
