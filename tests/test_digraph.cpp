// Tests of the generic digraph substrate.
#include "graph/digraph.h"

#include <gtest/gtest.h>

namespace ftes {
namespace {

Digraph diamond() {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  return g;
}

TEST(Digraph, BasicAdjacency) {
  const Digraph g = diamond();
  EXPECT_EQ(g.vertex_count(), 4);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.successors(0).size(), 2u);
  EXPECT_EQ(g.predecessors(3).size(), 2u);
}

TEST(Digraph, RejectsSelfLoopAndBadVertices) {
  Digraph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 5), std::out_of_range);
  EXPECT_THROW((void)g.successors(9), std::out_of_range);
}

TEST(Digraph, TopologicalOrderRespectsEdges) {
  const Digraph g = diamond();
  const std::vector<int> order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) pos[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[0], pos[2]);
  EXPECT_LT(pos[1], pos[3]);
  EXPECT_LT(pos[2], pos[3]);
}

TEST(Digraph, CycleDetection) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_acyclic());
  g.add_edge(2, 0);
  EXPECT_FALSE(g.is_acyclic());
  EXPECT_THROW((void)g.topological_order(), std::invalid_argument);
}

TEST(Digraph, Reachability) {
  const Digraph g = diamond();
  const std::vector<bool> r = g.reachable_from(1);
  EXPECT_FALSE(r[0]);
  EXPECT_TRUE(r[1]);
  EXPECT_FALSE(r[2]);
  EXPECT_TRUE(r[3]);
}

TEST(Digraph, CriticalPath) {
  const Digraph g = diamond();
  // Weights: 0->5, 1->10, 2->1, 3->2.
  auto w = [](int v) { return std::vector<Time>{5, 10, 1, 2}[static_cast<std::size_t>(v)]; };
  const std::vector<Time> crit = g.critical_path_from(w);
  EXPECT_EQ(crit[3], 2);
  EXPECT_EQ(crit[1], 12);
  EXPECT_EQ(crit[0], 17);
}

TEST(Digraph, DotExportContainsVerticesAndEdges) {
  const Digraph g = diamond();
  const std::string dot = g.to_dot([](int v) { return "V" + std::to_string(v); });
  EXPECT_NE(dot.find("V0"), std::string::npos);
  EXPECT_NE(dot.find("v0 -> v1"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
}

TEST(Digraph, AddVertexGrowsGraph) {
  Digraph g(1);
  const int v = g.add_vertex();
  EXPECT_EQ(v, 1);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.is_acyclic());
}

}  // namespace
}  // namespace ftes
