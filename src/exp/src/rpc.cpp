#include "mtsched/exp/rpc.hpp"

#include <sstream>

#include "mtsched/core/error.hpp"
#include "mtsched/core/parse.hpp"
#include "mtsched/core/table.hpp"
#include "mtsched/obs/json.hpp"

namespace mtsched::exp {

namespace {

constexpr const char* kWhat = "mtsched rpc JSON";

const std::string& as_string(const obs::json::Value& v,
                             const std::string& key) {
  if (v.type != obs::json::Value::Type::String) {
    throw core::ParseError(std::string(kWhat) + ": member '" + key +
                           "' must be a string");
  }
  return v.str;
}

bool as_bool(const obs::json::Value& v, const std::string& key) {
  if (v.type != obs::json::Value::Type::Bool) {
    throw core::ParseError(std::string(kWhat) + ": member '" + key +
                           "' must be a boolean");
  }
  return v.boolean;
}

double as_number(const obs::json::Value& v, const std::string& key) {
  if (v.type != obs::json::Value::Type::Number) {
    throw core::ParseError(std::string(kWhat) + ": member '" + key +
                           "' must be a number");
  }
  return v.num;
}

/// An integer written as integer text in int range: a fraction, an
/// exponent or a value a cast to int could not represent is a ParseError.
int as_int(const obs::json::Value& v, const std::string& key) {
  (void)as_number(v, key);
  if (const auto i = core::parse_number<int>(v.text)) return *i;
  throw core::ParseError(std::string(kWhat) + ": member '" + key +
                         "' must be an integer in int range");
}

/// Seeds travel as decimal strings (doubles would round past 2^53): a
/// non-empty run of ASCII digits that fits in uint64 — no sign, no
/// whitespace.
std::uint64_t as_seed(const obs::json::Value& v, const std::string& key) {
  const std::string& text = as_string(v, key);
  if (const auto seed = core::parse_number<std::uint64_t>(text)) return *seed;
  throw core::ParseError(std::string(kWhat) + ": member '" + key +
                         "' must be a decimal uint64 string, got \"" + text +
                         "\"");
}

obs::json::Value parse_checked(const std::string& payload) {
  const obs::json::Value doc = obs::json::parse(payload, kWhat);
  if (doc.type != obs::json::Value::Type::Object) {
    throw core::ParseError(std::string(kWhat) + ": payload must be an object");
  }
  const std::string& schema =
      as_string(obs::json::member(doc, "schema", kWhat), "schema");
  if (schema != kRpcSchema) {
    throw core::ParseError(std::string(kWhat) + ": unsupported schema \"" +
                           schema + "\" (this peer speaks " + kRpcSchema +
                           ")");
  }
  return doc;
}

std::string quoted(const std::string& s) {
  return "\"" + obs::json::escape(s) + "\"";
}

}  // namespace

std::string encode_request(const ScheduleRequest& req) {
  std::ostringstream os;
  os << "{\"schema\":" << quoted(kRpcSchema) << ",\"type\":\"schedule\""
     << ",\"algorithm\":" << quoted(req.algorithm) << ",\"mapping\":\""
     << sched::mapping_name(req.mapping) << "\""
     << ",\"model\":" << quoted(req.model.name()) << ",\"exp_seed\":\""
     << req.exp_seed << "\",\"execute\":" << (req.execute ? "true" : "false");
  // Optional member: omitted for the default platform, keeping
  // default-platform frames byte-identical to pre-platform clients'.
  if (!req.platform.empty()) {
    os << ",\"platform\":" << quoted(req.platform);
  }
  os << ",\"dag\":" << quoted(req.dag_text) << "}";
  return os.str();
}

std::string encode_ping() {
  return std::string("{\"schema\":") + quoted(kRpcSchema) +
         ",\"type\":\"ping\"}";
}

std::string encode_shutdown() {
  return std::string("{\"schema\":") + quoted(kRpcSchema) +
         ",\"type\":\"shutdown\"}";
}

RpcRequest parse_request(const std::string& payload) {
  const obs::json::Value doc = parse_checked(payload);
  const std::string& type =
      as_string(obs::json::member(doc, "type", kWhat), "type");

  RpcRequest req;
  if (type == "ping") {
    req.type = RpcRequest::Type::Ping;
    return req;
  }
  if (type == "shutdown") {
    req.type = RpcRequest::Type::Shutdown;
    return req;
  }
  if (type != "schedule") {
    throw core::ParseError(std::string(kWhat) + ": unknown request type \"" +
                           type + "\"");
  }

  req.type = RpcRequest::Type::Schedule;
  req.schedule.algorithm =
      as_string(obs::json::member(doc, "algorithm", kWhat), "algorithm");
  const std::string& mapping =
      as_string(obs::json::member(doc, "mapping", kWhat), "mapping");
  const auto strategy = sched::parse_mapping(mapping);
  if (!strategy) {
    throw core::ParseError(std::string(kWhat) + ": unknown mapping \"" +
                           mapping +
                           "\" (earliest | redist_aware | rack_aware)");
  }
  req.schedule.mapping = *strategy;
  // Optional member, absent in pre-platform frames: empty selects the
  // server's default platform.
  if (const obs::json::Value* platform = doc.find("platform")) {
    req.schedule.platform = as_string(*platform, "platform");
  }
  req.schedule.model = models::ModelSpec::parse(
      as_string(obs::json::member(doc, "model", kWhat), "model"));
  req.schedule.exp_seed =
      as_seed(obs::json::member(doc, "exp_seed", kWhat), "exp_seed");
  req.schedule.execute =
      as_bool(obs::json::member(doc, "execute", kWhat), "execute");
  req.schedule.dag_text =
      as_string(obs::json::member(doc, "dag", kWhat), "dag");
  return req;
}

std::string encode_response(const ScheduleResponse& resp) {
  std::ostringstream os;
  os << "{\"schema\":" << quoted(kRpcSchema) << ",\"type\":\"response\""
     << ",\"status\":" << static_cast<int>(resp.status)
     << ",\"status_name\":" << quoted(status_name(resp.status))
     << ",\"message\":" << quoted(resp.message)
     << ",\"model\":" << quoted(resp.model)
     << ",\"algorithm\":" << quoted(resp.algorithm)
     << ",\"platform\":" << quoted(resp.platform) << ",\"exp_seed\":\""
     << resp.exp_seed << "\",\"executed\":"
     << (resp.executed ? "true" : "false")
     << ",\"est_makespan\":" << core::fmt_roundtrip(resp.est_makespan)
     << ",\"makespan_sim\":" << core::fmt_roundtrip(resp.makespan_sim)
     << ",\"makespan_exp\":" << core::fmt_roundtrip(resp.makespan_exp)
     << ",\"allocation\":[";
  for (std::size_t i = 0; i < resp.allocation.size(); ++i) {
    if (i > 0) os << ',';
    os << resp.allocation[i];
  }
  os << "]}";
  return os.str();
}

ScheduleResponse parse_response(const std::string& payload) {
  const obs::json::Value doc = parse_checked(payload);
  const std::string& type =
      as_string(obs::json::member(doc, "type", kWhat), "type");
  if (type != "response") {
    throw core::ParseError(std::string(kWhat) +
                           ": expected a response, got type \"" + type +
                           "\"");
  }

  ScheduleResponse resp;
  const int status =
      as_int(obs::json::member(doc, "status", kWhat), "status");
  switch (status) {
    case 0: resp.status = ServiceStatus::Ok; break;
    case 400: resp.status = ServiceStatus::BadRequest; break;
    case 429: resp.status = ServiceStatus::Overloaded; break;
    case 500: resp.status = ServiceStatus::Internal; break;
    default:
      throw core::ParseError(std::string(kWhat) + ": unknown status code " +
                             std::to_string(status));
  }
  resp.message =
      as_string(obs::json::member(doc, "message", kWhat), "message");
  resp.model = as_string(obs::json::member(doc, "model", kWhat), "model");
  resp.algorithm =
      as_string(obs::json::member(doc, "algorithm", kWhat), "algorithm");
  // Optional member, absent in pre-platform frames.
  if (const obs::json::Value* platform = doc.find("platform")) {
    resp.platform = as_string(*platform, "platform");
  }
  resp.exp_seed =
      as_seed(obs::json::member(doc, "exp_seed", kWhat), "exp_seed");
  resp.executed =
      as_bool(obs::json::member(doc, "executed", kWhat), "executed");
  resp.est_makespan = as_number(
      obs::json::member(doc, "est_makespan", kWhat), "est_makespan");
  resp.makespan_sim = as_number(
      obs::json::member(doc, "makespan_sim", kWhat), "makespan_sim");
  resp.makespan_exp = as_number(
      obs::json::member(doc, "makespan_exp", kWhat), "makespan_exp");
  const obs::json::Value& alloc =
      obs::json::member(doc, "allocation", kWhat);
  if (alloc.type != obs::json::Value::Type::Array) {
    throw core::ParseError(std::string(kWhat) +
                           ": member 'allocation' must be an array");
  }
  resp.allocation.reserve(alloc.items.size());
  for (const auto& item : alloc.items) {
    resp.allocation.push_back(as_int(item, "allocation[]"));
  }
  return resp;
}

}  // namespace mtsched::exp
