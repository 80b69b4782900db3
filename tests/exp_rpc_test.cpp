// Wire-codec tests for mtsched.rpc.v1 (exp/rpc.hpp): request/response
// round trips, 64-bit seed fidelity, double round-tripping, the optional
// "platform" member's compatibility with pre-platform peers, and the
// rejection of malformed payloads.
#include "mtsched/exp/rpc.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "mtsched/core/error.hpp"

namespace {

using namespace mtsched;

exp::ScheduleRequest sample_request() {
  exp::ScheduleRequest req;
  req.dag_text = "task 0 matmul 2000 t0\ntask 1 matadd 2000 t1 0\n";
  req.algorithm = "MCPA";
  req.mapping = sched::MappingStrategy::RedistributionAware;
  req.model = models::ModelSpec::parse("empirical");
  req.exp_seed = 123456789ull;
  req.execute = false;
  return req;
}

TEST(RpcCodec, RequestRoundTrips) {
  const auto req = sample_request();
  const auto decoded = exp::parse_request(exp::encode_request(req));
  ASSERT_EQ(decoded.type, exp::RpcRequest::Type::Schedule);
  EXPECT_EQ(decoded.schedule.dag_text, req.dag_text);
  EXPECT_EQ(decoded.schedule.algorithm, req.algorithm);
  EXPECT_EQ(decoded.schedule.mapping, req.mapping);
  EXPECT_EQ(decoded.schedule.model.name(), "empirical");
  EXPECT_EQ(decoded.schedule.exp_seed, req.exp_seed);
  EXPECT_EQ(decoded.schedule.execute, req.execute);
  EXPECT_TRUE(decoded.schedule.platform.empty());
}

TEST(RpcCodec, AllMappingStrategiesRoundTrip) {
  for (const auto strategy : {sched::MappingStrategy::EarliestStart,
                              sched::MappingStrategy::RedistributionAware,
                              sched::MappingStrategy::RackAware}) {
    auto req = sample_request();
    req.mapping = strategy;
    EXPECT_EQ(exp::parse_request(exp::encode_request(req)).schedule.mapping,
              strategy)
        << sched::mapping_name(strategy);
  }
}

TEST(RpcCodec, PlatformMemberRoundTrips) {
  auto req = sample_request();
  req.platform = "hier4x8";
  const auto payload = exp::encode_request(req);
  EXPECT_NE(payload.find("\"platform\":\"hier4x8\""), std::string::npos);
  EXPECT_EQ(exp::parse_request(payload).schedule.platform, "hier4x8");
}

TEST(RpcCodec, DefaultPlatformIsOmittedFromRequestFrames) {
  // The member is optional precisely so that default-platform frames stay
  // byte-identical to what pre-platform clients send.
  const auto payload = exp::encode_request(sample_request());
  EXPECT_EQ(payload.find("platform"), std::string::npos);
}

TEST(RpcCodec, PrePlatformRequestFramesParse) {
  // A frame as an old client would send it: no "platform" member at all.
  const std::string payload =
      "{\"schema\":\"mtsched.rpc.v1\",\"type\":\"schedule\","
      "\"algorithm\":\"HCPA\",\"mapping\":\"earliest\","
      "\"model\":\"profile\",\"exp_seed\":\"42\",\"execute\":true,"
      "\"dag\":\"task 0 matmul 2000 t0\\n\"}";
  const auto decoded = exp::parse_request(payload);
  ASSERT_EQ(decoded.type, exp::RpcRequest::Type::Schedule);
  EXPECT_TRUE(decoded.schedule.platform.empty());
  EXPECT_EQ(decoded.schedule.mapping, sched::MappingStrategy::EarliestStart);
}

TEST(RpcCodec, SeedsAbove53BitsSurvive) {
  // Seeds ride as strings precisely because doubles would round this.
  auto req = sample_request();
  req.exp_seed = 0xFFFFFFFFFFFFFFFFull;
  EXPECT_EQ(exp::parse_request(exp::encode_request(req)).schedule.exp_seed,
            0xFFFFFFFFFFFFFFFFull);
}

TEST(RpcCodec, PingAndShutdownRoundTrip) {
  EXPECT_EQ(exp::parse_request(exp::encode_ping()).type,
            exp::RpcRequest::Type::Ping);
  EXPECT_EQ(exp::parse_request(exp::encode_shutdown()).type,
            exp::RpcRequest::Type::Shutdown);
}

TEST(RpcCodec, ResponseRoundTripsBitExactly) {
  exp::ScheduleResponse resp;
  resp.status = exp::ServiceStatus::Ok;
  resp.model = "profile";
  resp.algorithm = "HCPA";
  resp.platform = "bayreuth32";
  resp.exp_seed = 42;
  resp.est_makespan = 0.1 + 0.2;  // not representable "nicely"
  resp.makespan_sim = 1.0 / 3.0;
  resp.makespan_exp = 98.86213741;
  resp.executed = true;
  resp.allocation = {4, 1, 2, 32};

  const auto decoded = exp::parse_response(exp::encode_response(resp));
  EXPECT_EQ(decoded.status, exp::ServiceStatus::Ok);
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.model, resp.model);
  EXPECT_EQ(decoded.algorithm, resp.algorithm);
  EXPECT_EQ(decoded.platform, resp.platform);
  EXPECT_EQ(decoded.exp_seed, resp.exp_seed);
  // Bit-exact, not approximately: the byte-identity of `request` output
  // with a local run rests on this.
  EXPECT_EQ(decoded.est_makespan, resp.est_makespan);
  EXPECT_EQ(decoded.makespan_sim, resp.makespan_sim);
  EXPECT_EQ(decoded.makespan_exp, resp.makespan_exp);
  EXPECT_EQ(decoded.executed, resp.executed);
  EXPECT_EQ(decoded.allocation, resp.allocation);
}

TEST(RpcCodec, PrePlatformResponseFramesParse) {
  // A response as an old server would send it: strip the platform member
  // from a current frame. New clients must read it as "default platform".
  exp::ScheduleResponse resp;
  resp.platform = "stripme";
  auto payload = exp::encode_response(resp);
  const std::string member = ",\"platform\":\"stripme\"";
  const auto pos = payload.find(member);
  ASSERT_NE(pos, std::string::npos);
  payload.erase(pos, member.size());
  EXPECT_TRUE(exp::parse_response(payload).platform.empty());
}

TEST(RpcCodec, ErrorStatusesRoundTrip) {
  for (const auto status :
       {exp::ServiceStatus::BadRequest, exp::ServiceStatus::Overloaded,
        exp::ServiceStatus::Internal}) {
    exp::ScheduleResponse resp;
    resp.status = status;
    resp.message = "something \"quoted\"\nwith newlines";
    const auto decoded = exp::parse_response(exp::encode_response(resp));
    EXPECT_EQ(decoded.status, status);
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.message, resp.message);
  }
}

TEST(RpcCodec, MalformedPayloadsAreRejected) {
  // Not JSON at all.
  EXPECT_THROW((void)exp::parse_request("not json"), core::ParseError);
  // Valid JSON, wrong shape.
  EXPECT_THROW((void)exp::parse_request("[1,2,3]"), core::ParseError);
  // Missing schema.
  EXPECT_THROW((void)exp::parse_request("{\"type\":\"ping\"}"),
               core::ParseError);
  // Wrong schema version.
  EXPECT_THROW((void)exp::parse_request(
                   "{\"schema\":\"mtsched.rpc.v0\",\"type\":\"ping\"}"),
               core::ParseError);
  // Unknown request type.
  EXPECT_THROW((void)exp::parse_request(
                   "{\"schema\":\"mtsched.rpc.v1\",\"type\":\"dance\"}"),
               core::ParseError);
  // Nested a million levels deep (2 MB, well under the frame limit): a
  // typed error, not a stack overflow.
  const std::size_t depth = 1000000;
  EXPECT_THROW((void)exp::parse_request(std::string(depth, '[') +
                                        std::string(depth, ']')),
               core::ParseError);
}

TEST(RpcCodec, BadScheduleFieldsAreRejected) {
  const auto base = sample_request();
  {
    // Unknown mapping strategy.
    auto payload = exp::encode_request(base);
    const auto pos = payload.find("redist_aware");
    ASSERT_NE(pos, std::string::npos);
    payload.replace(pos, 12, "zigzag_walks");
    EXPECT_THROW((void)exp::parse_request(payload), core::ParseError);
  }
  {
    // Unknown cost model.
    auto payload = exp::encode_request(base);
    const auto pos = payload.find("empirical");
    ASSERT_NE(pos, std::string::npos);
    payload.replace(pos, 9, "psychical");
    EXPECT_THROW((void)exp::parse_request(payload), core::Error);
  }
  {
    // Seed that is not a decimal string.
    auto payload = exp::encode_request(base);
    const auto pos = payload.find("123456789");
    ASSERT_NE(pos, std::string::npos);
    payload.replace(pos, 9, "not-a-num");
    EXPECT_THROW((void)exp::parse_request(payload), core::ParseError);
  }
  // Seeds are bare ASCII digits that fit in uint64: no sign, no
  // whitespace, no wrap-around.
  const auto with_seed = [&](const std::string& seed) {
    auto payload = exp::encode_request(base);
    const auto pos = payload.find("\"123456789\"");
    EXPECT_NE(pos, std::string::npos);
    payload.replace(pos, 11, "\"" + seed + "\"");
    return payload;
  };
  for (const char* bad : {"-1", " 5", "5 ", "+5", "", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_THROW((void)exp::parse_request(with_seed(bad)), core::ParseError)
        << "seed \"" << bad << "\"";
  }
  EXPECT_EQ(exp::parse_request(with_seed("18446744073709551615"))
                .schedule.exp_seed,
            18446744073709551615ull);
  EXPECT_EQ(exp::parse_request(with_seed("007")).schedule.exp_seed, 7u);
}

TEST(RpcCodec, BadResponsesAreRejected) {
  exp::ScheduleResponse resp;
  auto payload = exp::encode_response(resp);
  const auto pos = payload.find("\"status\":0");
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos, 10, "\"status\":7");
  EXPECT_THROW((void)exp::parse_response(payload), core::ParseError);
  // Integral members must be integers in int range: no truncation, no
  // out-of-range cast.
  for (const char* bad : {"400.5", "1e300", "-1e300", "4294967296"}) {
    auto p = exp::encode_response(resp);
    p.replace(p.find("\"status\":0"), 10, std::string("\"status\":") + bad);
    EXPECT_THROW((void)exp::parse_response(p), core::ParseError)
        << "status " << bad;
  }
  resp.allocation = {1, 2};
  const auto alloc_payload = exp::encode_response(resp);
  for (const char* bad :
       {"1e300", "-1e300", "2.5", "2147483648", "-2147483649"}) {
    auto p = alloc_payload;
    p.replace(p.find("[1,2]"), 5, std::string("[1,") + bad + "]");
    EXPECT_THROW((void)exp::parse_response(p), core::ParseError)
        << "allocation " << bad;
  }
  EXPECT_EQ(exp::parse_response(alloc_payload).allocation,
            (std::vector<int>{1, 2}));
  // Numbers are whole from_chars tokens: "2-5" is not 2 and "3-1" is not
  // 3.
  resp.makespan_sim = 2.0;
  resp.allocation = {3, 2};
  const auto good = exp::encode_response(resp);
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"makespan_sim\":2,", "\"makespan_sim\":2-5,"},
           {"[3,2]", "[3-1,2]"},
           {"\"makespan_sim\":2,", "\"makespan_sim\":+2,"},
           {"\"makespan_sim\":2,", "\"makespan_sim\":2e,"},
           {"\"makespan_sim\":2,", "\"makespan_sim\":2.5.5,"},
           // JSON forbids leading zeros and a bare or trailing dot.
           {"\"makespan_sim\":2,", "\"makespan_sim\":02,"},
           {"[3,2]", "[00,2]"},
           {"\"makespan_sim\":2,", "\"makespan_sim\":.5,"},
           {"\"makespan_sim\":2,", "\"makespan_sim\":2.,"},
           {"\"makespan_sim\":2,", "\"makespan_sim\":-.5,"}}) {
    auto p = good;
    const auto at = p.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    p.replace(at, from.size(), to);
    EXPECT_THROW((void)exp::parse_response(p), core::ParseError) << to;
  }
  // A request is not a response.
  EXPECT_THROW((void)exp::parse_response(exp::encode_ping()),
               core::ParseError);
}

TEST(RpcCodec, StatusNames) {
  EXPECT_STREQ(exp::status_name(exp::ServiceStatus::Ok), "ok");
  EXPECT_STREQ(exp::status_name(exp::ServiceStatus::BadRequest),
               "bad_request");
  EXPECT_STREQ(exp::status_name(exp::ServiceStatus::Overloaded),
               "overloaded");
  EXPECT_STREQ(exp::status_name(exp::ServiceStatus::Internal), "internal");
}

}  // namespace
