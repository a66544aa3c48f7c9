#include "dag/graph.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "test_helpers.hpp"

namespace apt::dag {
namespace {

TEST(Dag, StartsEmpty) {
  Dag d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.node_count(), 0u);
  EXPECT_EQ(d.edge_count(), 0u);
  EXPECT_EQ(d.depth(), 0u);
  EXPECT_TRUE(d.is_weakly_connected());
}

TEST(Dag, AddNodeReturnsDenseIds) {
  Dag d;
  EXPECT_EQ(d.add_node("a", 1), 0u);
  EXPECT_EQ(d.add_node("b", 2), 1u);
  EXPECT_EQ(d.add_node("c", 3), 2u);
  EXPECT_EQ(d.node_count(), 3u);
  EXPECT_EQ(d.node(1).kernel, "b");
  EXPECT_EQ(d.node(1).data_size, 2u);
}

TEST(Dag, NodeNamesAreCanonicalised) {
  Dag d;
  d.add_node("Matrix Multiplication", 100);
  EXPECT_EQ(d.node(0).kernel, "mm");
}

TEST(Dag, EmptyKernelNameThrows) {
  Dag d;
  EXPECT_THROW(d.add_node("", 1), std::invalid_argument);
}

TEST(Dag, ReleaseTimesMustBeFiniteAndNonNegative) {
  // NaN passes a bare `< 0` check: a NaN release hung the engines, and an
  // infinite one printed an infinite makespan.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Dag d;
  for (const double bad : {-1.0, nan, inf, -inf}) {
    EXPECT_THROW(d.add_node("a", 1, bad), std::invalid_argument) << bad;
    EXPECT_THROW(d.add_node(Node{"a", 1, bad}), std::invalid_argument) << bad;
  }
  EXPECT_TRUE(d.empty());
  d.add_node("a", 1, 2.5);
  for (const double bad : {-1.0, nan, inf})
    EXPECT_THROW(d.set_release_ms(0, bad), std::invalid_argument) << bad;
  EXPECT_EQ(d.node(0).release_ms, 2.5);
  d.set_release_ms(0, 0.0);
  EXPECT_EQ(d.node(0).release_ms, 0.0);
}

TEST(Dag, AddEdgeWiresBothDirections) {
  Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_edge(0, 1);
  EXPECT_TRUE(d.has_edge(0, 1));
  EXPECT_FALSE(d.has_edge(1, 0));
  EXPECT_EQ(d.successors(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(d.predecessors(1), (std::vector<NodeId>{0}));
  EXPECT_EQ(d.in_degree(1), 1u);
  EXPECT_EQ(d.out_degree(0), 1u);
  EXPECT_EQ(d.edge_count(), 1u);
}

TEST(Dag, RejectsBadEdges) {
  Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  EXPECT_THROW(d.add_edge(0, 0), std::invalid_argument);   // self
  EXPECT_THROW(d.add_edge(0, 5), std::invalid_argument);   // unknown
  d.add_edge(0, 1);
  EXPECT_THROW(d.add_edge(0, 1), std::invalid_argument);   // duplicate
}

TEST(Dag, RejectsCycles) {
  Dag d;
  for (int i = 0; i < 3; ++i) d.add_node("k", 1);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  EXPECT_THROW(d.add_edge(2, 0), std::logic_error);
  EXPECT_THROW(d.add_edge(1, 0), std::logic_error);
  EXPECT_EQ(d.edge_count(), 2u);  // failed edges not half-added
  EXPECT_EQ(d.predecessors(0).size(), 0u);
}

TEST(Dag, EntryAndExitNodes) {
  const Dag d = test::diamond({{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}});
  EXPECT_EQ(d.entry_nodes(), (std::vector<NodeId>{0}));
  EXPECT_EQ(d.exit_nodes(), (std::vector<NodeId>{3}));
}

TEST(Dag, IsolatedNodesAreBothEntryAndExit) {
  Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  EXPECT_EQ(d.entry_nodes().size(), 2u);
  EXPECT_EQ(d.exit_nodes().size(), 2u);
  EXPECT_FALSE(d.is_weakly_connected());
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  const Dag d = test::diamond({{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}});
  const auto order = d.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId n = 0; n < d.node_count(); ++n) {
    for (NodeId s : d.successors(n)) EXPECT_LT(pos[n], pos[s]);
  }
}

TEST(Dag, TopologicalOrderIsDeterministicMinIdFirst) {
  Dag d;
  for (int i = 0; i < 4; ++i) d.add_node("k", 1);
  d.add_edge(2, 3);
  // 0,1,2 all sources: min-id-first ordering is exactly 0,1,2,3.
  EXPECT_EQ(d.topological_order(), (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Dag, DepthCountsLevels) {
  const Dag chain = test::chain({{"a", 1}, {"b", 1}, {"c", 1}});
  EXPECT_EQ(chain.depth(), 3u);
  const Dag diamond = test::diamond({{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}});
  EXPECT_EQ(diamond.depth(), 3u);
  Dag flat;
  flat.add_node("x", 1);
  flat.add_node("y", 1);
  EXPECT_EQ(flat.depth(), 1u);
}

TEST(Dag, WeakConnectivity) {
  Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  EXPECT_FALSE(d.is_weakly_connected());
  d.add_edge(0, 1);
  EXPECT_TRUE(d.is_weakly_connected());
}

TEST(Dag, KernelHistogram) {
  Dag d;
  d.add_node("mm", 1);
  d.add_node("mm", 2);
  d.add_node("bfs", 3);
  const auto hist = d.kernel_histogram();
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(hist[0], (std::pair<std::string, std::size_t>{"bfs", 1}));
  EXPECT_EQ(hist[1], (std::pair<std::string, std::size_t>{"mm", 2}));
}

TEST(Dag, LargeFanInAndOut) {
  Dag d;
  const NodeId hub = d.add_node("hub", 1);
  for (int i = 0; i < 100; ++i) {
    const NodeId n = d.add_node("leaf", 1);
    d.add_edge(hub, n);
  }
  EXPECT_EQ(d.out_degree(hub), 100u);
  EXPECT_EQ(d.depth(), 2u);
  const auto order = d.topological_order();
  EXPECT_EQ(order.front(), hub);
}

// identical() is the serialise-identically relation structure_hash
// fingerprints; the stream tests rely on it to check that a recorded
// schedule carries exactly the instance its source produced.
TEST(Dag, IdenticalMatchesStructureHash) {
  auto make = [] {
    Dag d;
    d.add_node("mm", 100);
    d.add_node("fft", 200);
    d.add_node("mm", 300);
    d.add_edge(0, 1);
    d.add_edge(0, 2);
    return d;
  };
  const Dag a = make();
  EXPECT_TRUE(identical(a, a));
  EXPECT_TRUE(identical(a, make()));
  EXPECT_EQ(structure_hash(a), structure_hash(make()));

  Dag edges = make();  // same nodes, one extra edge
  edges.add_edge(1, 2);
  EXPECT_FALSE(identical(a, edges));

  Dag data = make();
  data = Dag();
  data.add_node("mm", 100);
  data.add_node("fft", 201);  // data size differs
  data.add_node("mm", 300);
  data.add_edge(0, 1);
  data.add_edge(0, 2);
  EXPECT_FALSE(identical(a, data));

  Dag release = make();
  release.set_release_ms(1, 5.0);  // release times compare bitwise
  EXPECT_FALSE(identical(a, release));
  EXPECT_NE(structure_hash(a), structure_hash(release));

  Dag smaller;
  smaller.add_node("mm", 100);
  EXPECT_FALSE(identical(a, smaller));
}

}  // namespace
}  // namespace apt::dag
