// Export of task graphs to Graphviz DOT and a line-oriented text format
// (one task or edge per line) for inspection and external tooling.
#pragma once

#include <string>

#include "mtsched/dag/dag.hpp"

namespace mtsched::dag {

/// Graphviz DOT rendering (tasks labelled "name [kernel n=..]").
std::string to_dot(const Dag& g, const std::string& graph_name = "dag");

/// Line format:
///   task <id> <kernel> <n> <name>
///   edge <src> <dst>
std::string to_text(const Dag& g);

/// Parses the to_text() format back into a Dag: `task <id> <kernel> <n>
/// [name]` and `edge <src> <dst>` lines, numbers as core::parse_number
/// reads them. Throws core::ParseError on malformed input, including
/// surplus fields.
Dag from_text(const std::string& text);

}  // namespace mtsched::dag
