#include "mtsched/machine/table_machine.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "mtsched/core/error.hpp"
#include "mtsched/core/parse.hpp"

namespace mtsched::machine {

TableMachineModel::TableMachineModel(MachineTables tables)
    : tables_(std::move(tables)) {
  MTSCHED_REQUIRE(tables_.num_nodes >= 1, "machine needs at least one node");
  MTSCHED_REQUIRE(tables_.nominal_flops > 0.0,
                  "nominal flop rate must be positive");
  MTSCHED_REQUIRE(tables_.noise_sigma >= 0.0, "noise sigma must be >= 0");
  MTSCHED_REQUIRE(!tables_.exec.empty(),
                  "at least one execution table required");
  const auto nodes = static_cast<std::size_t>(tables_.num_nodes);
  for (const auto& [key, times] : tables_.exec) {
    MTSCHED_REQUIRE(times.size() == nodes,
                    "execution tables must cover p = 1..nodes");
    for (double t : times) {
      MTSCHED_REQUIRE(t > 0.0, "execution times must be positive");
    }
  }
  MTSCHED_REQUIRE(tables_.startup.size() == nodes,
                  "startup table must cover p = 1..nodes");
  MTSCHED_REQUIRE(!tables_.redist_rows.empty(),
                  "at least one redistribution row required");
  for (const auto& [src, row] : tables_.redist_rows) {
    MTSCHED_REQUIRE(src >= 0 && src < tables_.num_nodes,
                    "redistribution row index out of range");
    MTSCHED_REQUIRE(row.size() == nodes,
                    "redistribution rows must cover p_dst = 1..nodes");
  }
}

double TableMachineModel::exec_time_mean(dag::TaskKernel k, int n,
                                         int p) const {
  MTSCHED_REQUIRE(p >= 1 && p <= tables_.num_nodes,
                  "allocation out of range");
  const auto it = tables_.exec.find({k, n});
  MTSCHED_REQUIRE(it != tables_.exec.end(),
                  "no measurements for kernel '" +
                      std::string(dag::kernel_name(k)) +
                      "' at n = " + std::to_string(n));
  return it->second[static_cast<std::size_t>(p - 1)];
}

double TableMachineModel::startup_mean(int p) const {
  MTSCHED_REQUIRE(p >= 1 && p <= tables_.num_nodes,
                  "allocation out of range");
  return tables_.startup[static_cast<std::size_t>(p - 1)];
}

double TableMachineModel::redist_overhead_mean(int p_src, int p_dst) const {
  MTSCHED_REQUIRE(p_src >= 1 && p_src <= tables_.num_nodes,
                  "source allocation out of range");
  MTSCHED_REQUIRE(p_dst >= 1 && p_dst <= tables_.num_nodes,
                  "destination allocation out of range");
  // Nearest provided p_src row.
  auto it = tables_.redist_rows.lower_bound(p_src - 1);
  if (it == tables_.redist_rows.end()) {
    it = std::prev(tables_.redist_rows.end());
  } else if (it != tables_.redist_rows.begin() &&
             it->first != p_src - 1) {
    const auto prev = std::prev(it);
    if ((p_src - 1) - prev->first < it->first - (p_src - 1)) it = prev;
  }
  return it->second[static_cast<std::size_t>(p_dst - 1)];
}

namespace {

core::ParseError line_error(const std::string& msg, std::size_t lineno) {
  return core::ParseError(msg + " on line " + std::to_string(lineno));
}

/// Tokens [first, end) of a line as doubles.
std::vector<double> values(const std::vector<std::string_view>& f,
                           std::size_t first, std::string_view what,
                           std::size_t lineno) {
  std::vector<double> out;
  for (std::size_t i = first; i < f.size(); ++i) {
    out.push_back(core::parse_field<double>(f[i], what, lineno));
  }
  return out;
}

}  // namespace

MachineTables parse_machine_tables(const std::string& text) {
  MachineTables t;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto f =
        core::split_ws(std::string_view(line).substr(0, line.find('#')));
    if (f.empty()) continue;  // blank
    const std::string head(f[0]);
    if (head == "nodes" || head == "nominal_flops" || head == "noise_sigma") {
      if (f.size() != 3 || f[1] != "=") {
        throw line_error("expected '" + head + " = value'", lineno);
      }
      if (head == "nodes") {
        t.num_nodes = core::parse_field<int>(f[2], head, lineno);
      } else {
        (head == "nominal_flops" ? t.nominal_flops : t.noise_sigma) =
            core::parse_field<double>(f[2], head, lineno);
      }
    } else if (head == "exec") {
      if (f.size() < 4 || f[3] != ":") {
        throw line_error("expected 'exec <kernel> <n> : values'", lineno);
      }
      const auto k = dag::parse_kernel(f[1]);
      if (!k) {
        throw line_error("unknown kernel '" + std::string(f[1]) + "'", lineno);
      }
      t.exec[{*k, core::parse_field<int>(f[2], "exec n", lineno)}] =
          values(f, 4, "exec time", lineno);
    } else if (head == "startup") {
      if (f.size() < 2 || f[1] != ":") {
        throw line_error("expected 'startup : values'", lineno);
      }
      t.startup = values(f, 2, "startup time", lineno);
    } else if (head == "redist") {
      if (f.size() < 3 || f[2] != ":") {
        throw line_error("expected 'redist <p_src> : values'", lineno);
      }
      const int src = core::parse_field<int>(f[1], "redist p_src", lineno);
      if (src < 1) throw line_error("redist p_src must be >= 1", lineno);
      t.redist_rows[src - 1] = values(f, 3, "redist overhead", lineno);
    } else {
      throw line_error("unknown record '" + head + "'", lineno);
    }
  }
  return t;
}

std::string to_text(const MachineTables& t) {
  std::ostringstream os;
  os.precision(12);
  os << "nodes = " << t.num_nodes << '\n';
  os << "nominal_flops = " << t.nominal_flops << '\n';
  os << "noise_sigma = " << t.noise_sigma << '\n';
  for (const auto& [key, times] : t.exec) {
    os << "exec " << dag::kernel_name(key.first) << ' ' << key.second
       << " :";
    for (double v : times) os << ' ' << v;
    os << '\n';
  }
  os << "startup :";
  for (double v : t.startup) os << ' ' << v;
  os << '\n';
  for (const auto& [src, row] : t.redist_rows) {
    os << "redist " << src + 1 << " :";
    for (double v : row) os << ' ' << v;
    os << '\n';
  }
  return os.str();
}

MachineTables snapshot_tables(
    const MachineModel& model,
    const std::vector<std::pair<dag::TaskKernel, int>>& workloads) {
  MTSCHED_REQUIRE(!workloads.empty(), "need at least one (kernel, n) pair");
  MachineTables t;
  t.num_nodes = model.max_procs();
  t.nominal_flops = model.nominal_flops();
  t.noise_sigma = model.noise_sigma();
  for (const auto& [k, n] : workloads) {
    std::vector<double> times;
    for (int p = 1; p <= t.num_nodes; ++p) {
      times.push_back(model.exec_time_mean(k, n, p));
    }
    t.exec[{k, n}] = std::move(times);
  }
  for (int p = 1; p <= t.num_nodes; ++p) {
    t.startup.push_back(model.startup_mean(p));
  }
  for (int s = 1; s <= t.num_nodes; ++s) {
    std::vector<double> row;
    for (int d = 1; d <= t.num_nodes; ++d) {
      row.push_back(model.redist_overhead_mean(s, d));
    }
    t.redist_rows[s - 1] = std::move(row);
  }
  return t;
}

}  // namespace mtsched::machine
