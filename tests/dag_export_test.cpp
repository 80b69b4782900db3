// Tests for DAG text/DOT export and parsing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mtsched/core/error.hpp"
#include "mtsched/dag/export.hpp"
#include "mtsched/dag/generator.hpp"

namespace {

using namespace mtsched::dag;
using mtsched::core::ParseError;

TEST(TextRoundTrip, PreservesStructure) {
  DagGenParams p;
  p.seed = 123;
  p.width = 8;
  const auto d = generate_random_dag(p);
  const auto text = to_text(d.graph);
  const auto parsed = from_text(text);
  EXPECT_EQ(to_text(parsed), text);
  EXPECT_EQ(parsed.num_tasks(), d.graph.num_tasks());
  EXPECT_EQ(parsed.num_edges(), d.graph.num_edges());
}

TEST(FromText, SkipsCommentsAndBlankLines) {
  const auto g = from_text(
      "# a comment\n"
      "\n"
      "task 0 matmul 100 a\n"
      "task 1 matadd 100 b\n"
      "edge 0 1\n");
  EXPECT_EQ(g.num_tasks(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.task(1).kernel, TaskKernel::MatAdd);
}

TEST(FromText, RejectsUnknownKernel) {
  EXPECT_THROW(from_text("task 0 matdiv 100 x\n"), ParseError);
}

TEST(FromText, RejectsUnknownRecord) {
  EXPECT_THROW(from_text("vertex 0 matmul 100\n"), ParseError);
}

TEST(FromText, RejectsNonDenseIds) {
  EXPECT_THROW(from_text("task 5 matmul 100 x\n"), ParseError);
}

TEST(FromText, RejectsMalformedLines) {
  EXPECT_THROW(from_text("task 0 matmul\n"), ParseError);
  EXPECT_THROW(from_text("edge 0\n"), ParseError);
  // Every number is a whole token: "2000x a" is not dim 2000 named x,
  // "1junk" is not task 1, and ids and dims take no sign or overflow.
  const std::string two = "task 0 matmul 100 a\ntask 1 matadd 100 b\n";
  const std::vector<std::string> bad_inputs = {
      "task 0 matadd 2000x a\n",      "task 0 matmul +100 a\n",
      "task 0 matmul 1e3 a\n",        "task 0 matmul 4294967396 a\n",
      "task -0 matmul 100 a\n",       "task 4294967296 matmul 100 a\n",
      "task 0 matmul 100 a extra\n",  two + "edge 0 1junk\n",
      two + "edge 0 4294967297\n",    two + "edge 0 1 2\n",
      two + "edge +0 1\n"};
  for (const auto& bad : bad_inputs) {
    try {
      (void)from_text(bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
    }
  }
}

TEST(FromText, RejectsCycles) {
  EXPECT_THROW(from_text("task 0 matmul 10 a\n"
                         "task 1 matmul 10 b\n"
                         "edge 0 1\n"
                         "edge 1 0\n"),
               mtsched::core::InvalidArgument);
}

TEST(ToDot, ContainsAllTasksAndEdges) {
  DagGenParams p;
  p.seed = 3;
  const auto d = generate_random_dag(p);
  const auto dot = to_dot(d.graph, "g");
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
  for (const auto& t : d.graph.tasks()) {
    EXPECT_NE(dot.find("t" + std::to_string(t.id) + " ["), std::string::npos);
  }
  std::size_t arrows = 0, pos = 0;
  while ((pos = dot.find("->", pos)) != std::string::npos) {
    ++arrows;
    pos += 2;
  }
  EXPECT_EQ(arrows, d.graph.num_edges());
}

TEST(ToDot, KernelShapesDiffer) {
  Dag g;
  g.add_task(TaskKernel::MatMul, 10);
  g.add_task(TaskKernel::MatAdd, 10);
  const auto dot = to_dot(g);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=ellipse"), std::string::npos);
}

}  // namespace
