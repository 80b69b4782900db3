#include "mtsched/dag/export.hpp"

#include <algorithm>
#include <sstream>

#include "mtsched/core/error.hpp"
#include "mtsched/core/parse.hpp"

namespace mtsched::dag {

std::string to_dot(const Dag& g, const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n";
  os << "  rankdir=TB;\n";
  for (const auto& t : g.tasks()) {
    os << "  t" << t.id << " [label=\"" << t.name << "\\n"
       << kernel_name(t.kernel) << " n=" << t.matrix_dim << "\", shape="
       << (t.kernel == TaskKernel::MatMul ? "box" : "ellipse") << "];\n";
  }
  for (const auto& e : g.edges())
    os << "  t" << e.src << " -> t" << e.dst << ";\n";
  os << "}\n";
  return os.str();
}

std::string to_text(const Dag& g) {
  std::ostringstream os;
  for (const auto& t : g.tasks()) {
    os << "task " << t.id << ' ' << kernel_name(t.kernel) << ' '
       << t.matrix_dim << ' ' << t.name << '\n';
  }
  for (const auto& e : g.edges()) os << "edge " << e.src << ' ' << e.dst << '\n';
  return os.str();
}

Dag from_text(const std::string& text) {
  Dag g;
  std::string_view rest = text;
  for (std::size_t lineno = 1; !rest.empty(); ++lineno) {
    const std::string_view line = rest.substr(0, rest.find('\n'));
    rest.remove_prefix(std::min(line.size() + 1, rest.size()));
    if (line.empty() || line[0] == '#') continue;
    const auto f = core::split_ws(line);
    const std::string_view kind = f.empty() ? std::string_view{} : f[0];
    if (kind == "task") {
      // task <id> <kernel> <n> [name]
      if (f.size() < 4 || f.size() > 5) {
        throw core::ParseError("malformed task line " + std::to_string(lineno));
      }
      const auto id = core::parse_field<TaskId>(f[1], "task id", lineno);
      const int n = core::parse_field<int>(f[3], "matrix dimension", lineno);
      const auto k = parse_kernel(f[2]);
      if (!k) {
        throw core::ParseError("unknown kernel '" + std::string(f[2]) +
                               "' on line " + std::to_string(lineno));
      }
      const TaskId got = g.add_task(
          *k, n, f.size() == 5 ? std::string(f[4]) : std::string());
      if (got != id) {
        throw core::ParseError("task ids must be dense and in order (line " +
                               std::to_string(lineno) + ")");
      }
    } else if (kind == "edge") {
      // edge <src> <dst>
      if (f.size() != 3) {
        throw core::ParseError("malformed edge line " + std::to_string(lineno));
      }
      g.add_edge(core::parse_field<TaskId>(f[1], "edge source", lineno),
                 core::parse_field<TaskId>(f[2], "edge destination", lineno));
    } else {
      throw core::ParseError("unknown record '" + std::string(kind) +
                             "' on line " + std::to_string(lineno));
    }
  }
  g.validate();
  return g;
}

}  // namespace mtsched::dag
