#include "mtsched/platform/parser.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <sstream>

#include "mtsched/core/error.hpp"
#include "mtsched/core/parse.hpp"

namespace mtsched::platform {

namespace {

using core::parse_field;

std::string trim(const std::string& s) {
  auto b = s.begin();
  auto e = s.end();
  while (b != e && std::isspace(static_cast<unsigned char>(*b))) ++b;
  while (e != b && std::isspace(static_cast<unsigned char>(*(e - 1)))) --e;
  return std::string(b, e);
}

bool parse_bool(const std::string& v, std::size_t lineno) {
  if (v == "true" || v == "1") return true;
  if (v == "false" || v == "0") return false;
  throw core::ParseError("bad boolean value '" + v + "' on line " +
                         std::to_string(lineno));
}

}  // namespace

Topology parse_topology(const std::string& text) {
  Topology topo;
  topo.racks.clear();

  // Section state: "" = top-level, "core", "rack".
  std::string section;
  RackSpec rack;
  int rack_count = 1;
  bool header_seen = false;
  std::int64_t declared_nodes = 0;  // count x nodes, summed over racks
  std::size_t lineno = 0;
  auto flush_rack = [&] {
    if (section != "rack") return;
    // Bounded before expanding, so a hostile count allocates nothing.
    const std::int64_t rack_nodes = std::max<std::int64_t>(
        {rack.nodes, 1, static_cast<std::int64_t>(rack.node_speeds.size())});
    declared_nodes += rack_count * rack_nodes;
    if (declared_nodes > kMaxPlatformNodes) {
      throw core::ParseError("platform declares more than " +
                             std::to_string(kMaxPlatformNodes) +
                             " nodes (rack section ending at line " +
                             std::to_string(lineno) + ")");
    }
    for (int i = 0; i < rack_count; ++i) topo.racks.push_back(rack);
  };

  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    if (!header_seen) {
      if (line != kPlatformSchema) break;  // reported below
      header_seen = true;
      continue;
    }
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw core::ParseError("malformed section header on line " +
                               std::to_string(lineno));
      }
      flush_rack();
      section = trim(line.substr(1, line.size() - 2));
      if (section == "rack") {
        rack = RackSpec{};
        rack_count = 1;
      } else if (section != "core") {
        throw core::ParseError("unknown section '[" + section +
                               "]' on line " + std::to_string(lineno));
      }
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw core::ParseError("expected key = value on line " +
                             std::to_string(lineno));
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    const auto real = [&] { return parse_field<double>(value, key, lineno); };
    const auto integer = [&] { return parse_field<int>(value, key, lineno); };
    if (section.empty()) {
      if (key == "name") {
        topo.name = value;
      } else {
        throw core::ParseError("unknown top-level key '" + key +
                               "' on line " + std::to_string(lineno));
      }
    } else if (section == "core") {
      if (key == "bandwidth") {
        topo.core.bandwidth = real();
      } else if (key == "latency") {
        topo.core.latency = real();
      } else if (key == "shared") {
        topo.core.shared = parse_bool(value, lineno);
      } else {
        throw core::ParseError("unknown [core] key '" + key + "' on line " +
                               std::to_string(lineno));
      }
    } else {  // rack
      if (key == "count") {
        rack_count = integer();
        if (rack_count < 1) {
          throw core::ParseError("rack count must be >= 1 on line " +
                                 std::to_string(lineno));
        }
      } else if (key == "nodes") {
        rack.nodes = integer();
      } else if (key == "node_flops") {
        rack.node_flops = real();
      } else if (key == "link_bandwidth") {
        rack.link_bandwidth = real();
      } else if (key == "link_latency") {
        rack.link_latency = real();
      } else if (key == "tor_bandwidth") {
        rack.tor_bandwidth = real();
      } else if (key == "tor_latency") {
        rack.tor_latency = real();
      } else if (key == "shared_tor") {
        rack.shared_tor = parse_bool(value, lineno);
      } else if (key == "oversubscription") {
        rack.oversubscription = real();
      } else if (key == "uplink_bandwidth") {
        rack.uplink_bandwidth = real();
      } else if (key == "node_speeds") {
        rack.node_speeds.clear();
        for (const auto tok : core::split_ws(value)) {
          rack.node_speeds.push_back(parse_field<double>(tok, key, lineno));
        }
      } else {
        throw core::ParseError("unknown [rack] key '" + key + "' on line " +
                               std::to_string(lineno));
      }
    }
  }
  if (!header_seen) {
    throw core::ParseError(std::string("missing '") + kPlatformSchema +
                           "' header line");
  }
  flush_rack();
  topo.validate();
  return topo;
}

std::string to_text(const Topology& topo) {
  std::ostringstream os;
  os.precision(17);
  os << kPlatformSchema << '\n';
  os << "name = " << topo.name << '\n';
  os << "[core]\n";
  os << "bandwidth = " << topo.core.bandwidth << '\n';
  os << "latency = " << topo.core.latency << '\n';
  os << "shared = " << (topo.core.shared ? "true" : "false") << '\n';
  for (std::size_t i = 0; i < topo.racks.size();) {
    const RackSpec& r = topo.racks[i];
    std::size_t run = 1;
    while (i + run < topo.racks.size() && topo.racks[i + run] == r) ++run;
    os << "[rack]\n";
    if (run > 1) os << "count = " << run << '\n';
    os << "nodes = " << r.nodes << '\n';
    os << "node_flops = " << r.node_flops << '\n';
    os << "link_bandwidth = " << r.link_bandwidth << '\n';
    os << "link_latency = " << r.link_latency << '\n';
    os << "tor_bandwidth = " << r.tor_bandwidth << '\n';
    os << "tor_latency = " << r.tor_latency << '\n';
    os << "shared_tor = " << (r.shared_tor ? "true" : "false") << '\n';
    os << "oversubscription = " << r.oversubscription << '\n';
    os << "uplink_bandwidth = " << r.uplink_bandwidth << '\n';
    if (!r.node_speeds.empty()) {
      os << "node_speeds =";
      for (double v : r.node_speeds) os << ' ' << v;
      os << '\n';
    }
    i += run;
  }
  return os.str();
}

ClusterSpec parse_platform(const std::string& text) {
  return to_cluster(parse_topology(text));
}

}  // namespace mtsched::platform
