#include "dag/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "dag/generator.hpp"
#include "dag/serialize.hpp"
#include "scenario/scenario.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

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

// While every edge points from a lower id to a higher one, add_edge skips
// the cycle search for a new forward edge. A back edge must still be
// searched, and once one is in, forward edges must be searched too.
TEST(Dag, BackEdgeIntoAGraphBuiltForwardThrows) {
  Dag d;
  for (int i = 0; i < 5; ++i) d.add_node("k", 1);
  for (NodeId i = 0; i + 1 < 5; ++i) d.add_edge(i, i + 1);
  EXPECT_THROW(d.add_edge(4, 0), std::logic_error);
  EXPECT_THROW(d.add_edge(3, 1), std::logic_error);
  EXPECT_EQ(d.edge_count(), 4u);
  d.add_edge(0, 2);  // forward again, no cycle
  EXPECT_EQ(d.successors(0), (std::vector<NodeId>{1, 2}));
}

TEST(Dag, CycleBuiltBackwardThrows) {
  Dag d;
  for (int i = 0; i < 4; ++i) d.add_node("k", 1);
  d.add_edge(3, 2);
  d.add_edge(2, 1);
  d.add_edge(1, 0);
  EXPECT_THROW(d.add_edge(0, 3), std::logic_error);  // forward, closes one
  EXPECT_THROW(d.add_edge(0, 2), std::logic_error);
  d.add_edge(3, 0);  // a backward shortcut that closes no cycle
  EXPECT_EQ(d.edge_count(), 4u);
  EXPECT_EQ(d.topological_order(), (std::vector<NodeId>{3, 2, 1, 0}));
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

/// Kahn's algorithm with a min-id heap frontier: how topological_order()
/// ordered every graph before forward-only graphs returned 0 .. n-1 without
/// it. Kept as the reference that shortcut must equal.
std::vector<NodeId> heap_topological_order(const Dag& d) {
  std::vector<std::size_t> indeg(d.node_count());
  std::vector<NodeId> frontier;
  for (NodeId i = 0; i < d.node_count(); ++i) {
    indeg[i] = d.in_degree(i);
    if (indeg[i] == 0) frontier.push_back(i);
  }
  std::make_heap(frontier.begin(), frontier.end(), std::greater<>{});
  std::vector<NodeId> order;
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>{});
    const NodeId n = frontier.back();
    frontier.pop_back();
    order.push_back(n);
    for (const NodeId s : d.successors(n)) {
      if (--indeg[s] == 0) {
        frontier.push_back(s);
        std::push_heap(frontier.begin(), frontier.end(), std::greater<>{});
      }
    }
  }
  return order;
}

TEST(Dag, TopologicalOrderEqualsTheMinIdHeapOrder) {
  // Every family adds forward edges only, so the order is 0 .. n-1.
  const KernelPool pool = KernelPool::paper_pool();
  for (const scenario::ScenarioFamily* family : scenario::all_families()) {
    for (const std::size_t kernels : {24u, 157u}) {
      for (const std::uint64_t seed : {1u, 9u}) {
        const Dag d = family->generate(kernels, seed, pool);
        std::vector<NodeId> identity(d.node_count());
        std::iota(identity.begin(), identity.end(), NodeId{0});
        const std::vector<NodeId> order = d.topological_order();
        EXPECT_EQ(order, heap_topological_order(d))
            << family->name() << " n" << kernels << " seed " << seed;
        EXPECT_EQ(order, identity) << family->name();
      }
    }
  }
  // A file may list edges that point backward: the heap orders them.
  const Dag backward = from_text(
      "node 0 mm 1\nnode 1 mm 1\nnode 2 mm 1\nnode 3 mm 1\nnode 4 mm 1\n"
      "edge 0 4\nedge 3 1\nedge 4 2\nedge 1 2\n");
  const std::vector<NodeId> order = backward.topological_order();
  EXPECT_EQ(order, heap_topological_order(backward));
  EXPECT_EQ(order, (std::vector<NodeId>{0, 3, 1, 4, 2}));
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

// --- pooled adjacency storage ------------------------------------------------

/// What a Dag's adjacency must read as: one list per node and direction, in
/// the order the edges were added.
struct ModelGraph {
  std::vector<std::vector<NodeId>> succs;
  std::vector<std::vector<NodeId>> preds;

  bool has_edge(NodeId src, NodeId dst) const {
    return std::find(succs[src].begin(), succs[src].end(), dst) !=
           succs[src].end();
  }
  bool reaches(NodeId from, NodeId to) const {
    std::vector<bool> seen(succs.size(), false);
    std::vector<NodeId> stack = {from};
    seen[from] = true;
    while (!stack.empty()) {
      const NodeId n = stack.back();
      stack.pop_back();
      if (n == to) return true;
      for (const NodeId s : succs[n]) {
        if (!seen[s]) {
          seen[s] = true;
          stack.push_back(s);
        }
      }
    }
    return false;
  }
};

void expect_matches(const Dag& d, const ModelGraph& m,
                    const std::string& where) {
  ASSERT_EQ(d.node_count(), m.succs.size()) << where;
  std::size_t edges = 0;
  for (NodeId i = 0; i < m.succs.size(); ++i) {
    EXPECT_EQ(d.successors(i), m.succs[i]) << where << ", node " << i;
    EXPECT_EQ(d.predecessors(i), m.preds[i]) << where << ", node " << i;
    EXPECT_EQ(d.out_degree(i), m.succs[i].size()) << where << ", node " << i;
    EXPECT_EQ(d.in_degree(i), m.preds[i].size()) << where << ", node " << i;
    for (NodeId j = 0; j < m.succs.size(); ++j)
      ASSERT_EQ(d.has_edge(i, j), m.has_edge(i, j))
          << where << ", edge " << i << " -> " << j;
    edges += m.succs[i].size();
  }
  EXPECT_EQ(d.edge_count(), edges) << where;
}

// Seeded walks of interleaved add_node/add_edge against the model. Half
// the edges come from a few hub nodes, so runs outgrow their room many
// times and move past each other in the pool; odd seeds add only forward
// edges (no cycle search), even seeds any direction.
TEST(DagStorage, MatchesAVectorOfVectorsModel) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(seed);
    const bool forward_only = seed % 2 == 1;
    Dag d;
    ModelGraph m;
    for (int step = 0; step < 600; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + ", step " + std::to_string(step);
      const std::size_t n = m.succs.size();
      if (n < 2 || rng.uniform_u64(4) == 0) {
        d.add_node("k", static_cast<std::uint64_t>(step));
        m.succs.emplace_back();
        m.preds.emplace_back();
        continue;
      }
      auto pick = [&] {
        const std::size_t pool =
            rng.uniform_u64(2) == 0 ? std::min<std::size_t>(n, 3) : n;
        return static_cast<NodeId>(rng.uniform_u64(pool));
      };
      NodeId src = pick();
      NodeId dst = static_cast<NodeId>(rng.uniform_u64(n));
      if (forward_only && src > dst) std::swap(src, dst);
      if (src == dst || m.has_edge(src, dst)) {
        EXPECT_THROW(d.add_edge(src, dst), std::invalid_argument) << where;
      } else if (m.reaches(dst, src)) {
        EXPECT_THROW(d.add_edge(src, dst), std::logic_error) << where;
      } else {
        d.add_edge(src, dst);
        m.succs[src].push_back(dst);
        m.preds[dst].push_back(src);
      }
      if (step % 100 == 0) expect_matches(d, m, where);
    }
    const std::string where = "seed " + std::to_string(seed);
    expect_matches(d, m, where);

    // A view survives add_node: only add_edge may move the pool.
    const NodeRange hub = d.successors(0);
    const std::vector<NodeId> hub_before(hub.begin(), hub.end());
    d.add_node("k", 1);
    m.succs.emplace_back();
    m.preds.emplace_back();
    EXPECT_EQ(hub, hub_before) << where;

    const Dag copy = d;
    expect_matches(copy, m, where + ", copy");
    EXPECT_TRUE(identical(copy, d)) << where;
    EXPECT_EQ(structure_hash(copy), structure_hash(d)) << where;
    Dag source = d;
    const Dag moved = std::move(source);
    expect_matches(moved, m, where + ", move");
    EXPECT_TRUE(identical(moved, d)) << where;
    EXPECT_EQ(structure_hash(moved), structure_hash(d)) << where;
    Dag assigned = test::diamond({{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}});
    assigned = copy;
    expect_matches(assigned, m, where + ", copy-assigned");
  }
}

TEST(DagStorage, UnknownIdsThrowOutOfRange) {
  Dag d;
  d.add_node("k", 1);
  EXPECT_THROW(d.successors(1), std::out_of_range);
  EXPECT_THROW(d.predecessors(1), std::out_of_range);
  EXPECT_THROW(d.in_degree(1), std::out_of_range);
  EXPECT_THROW(d.out_degree(1), std::out_of_range);
  EXPECT_TRUE(d.successors(0).empty());
}

}  // namespace
}  // namespace apt::dag
