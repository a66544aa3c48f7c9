// Kernel dataflow graphs (DFGs).
//
// The scheduling problem is (R | prec | Cmax): a DAG G = (V, E) where V is a
// set of kernels (each with a kernel name and a data size, which together key
// the lookup table) and E is the set of data/precedence dependencies
// (thesis §2.5.1). Node ids are dense indices assigned in insertion order —
// insertion order is also the "arrival order" the dynamic policies see.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace apt::dag {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One kernel instance in the dataflow graph.
struct Node {
  std::string kernel;       ///< canonical kernel name (lookup-table key)
  std::uint64_t data_size;  ///< problem size in elements (lookup-table key)

  /// Earliest time (ms) the kernel may start — models streaming arrival of
  /// applications. A kernel is ready when its predecessors completed AND
  /// the clock reached its release time. 0 (the default) reproduces the
  /// thesis's everything-submitted-up-front experiments.
  double release_ms = 0.0;
};

/// A read-only view of one node's successors or predecessors, in the order
/// their edges were added. It points into the graph's adjacency pool, so
/// it stays valid until the next add_edge on that graph (add_node does not
/// move the pool) or until the graph is destroyed or assigned to.
class NodeRange {
 public:
  using value_type = NodeId;
  using iterator = const NodeId*;
  using const_iterator = const NodeId*;

  NodeRange() = default;
  NodeRange(const NodeId* first, const NodeId* last) noexcept
      : first_(first), last_(last) {}

  const NodeId* begin() const noexcept { return first_; }
  const NodeId* end() const noexcept { return last_; }
  std::size_t size() const noexcept {
    return static_cast<std::size_t>(last_ - first_);
  }
  bool empty() const noexcept { return first_ == last_; }
  NodeId operator[](std::size_t i) const noexcept { return first_[i]; }

 private:
  const NodeId* first_ = nullptr;
  const NodeId* last_ = nullptr;
};

inline bool operator==(NodeRange a, NodeRange b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}
inline bool operator==(NodeRange a, const std::vector<NodeId>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}
inline bool operator==(const std::vector<NodeId>& a, NodeRange b) {
  return b == a;
}
inline bool operator!=(NodeRange a, NodeRange b) { return !(a == b); }

/// A directed acyclic dataflow graph of kernels.
///
/// Edges are unweighted; the data transferred along an edge is the
/// producer's output, modelled as `producer.data_size` elements (the cost
/// model converts elements to bytes and bytes to milliseconds).
///
/// Adjacency lives in one pool per direction: each node owns a run
/// (offset, size, capacity) of it, and a full run moves to the pool's end
/// with twice the room. So a graph is five blocks (nodes, two run tables,
/// two pools) whatever its size, and copying one costs five allocations.
class Dag {
 public:
  Dag() = default;

  /// Adds a node and returns its id (ids are dense, insertion-ordered).
  /// Throws std::invalid_argument on empty kernel names or release times
  /// that are negative or not finite.
  NodeId add_node(std::string kernel, std::uint64_t data_size,
                  double release_ms = 0.0);
  NodeId add_node(const Node& node);

  /// Makes room for `nodes` nodes in the node table and both run tables,
  /// so a builder that knows its size allocates each of them once.
  void reserve(std::size_t nodes);

  /// Sets a node's release time after construction (workload shapers).
  /// Throws std::invalid_argument on an unknown id or a release time that
  /// is negative or not finite.
  void set_release_ms(NodeId id, double release_ms);

  /// Adds a dependency edge src -> dst.
  /// Throws std::invalid_argument on self-edges, unknown ids, or duplicates.
  /// Throws std::logic_error if the edge would create a cycle.
  void add_edge(NodeId src, NodeId dst);

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }
  bool empty() const noexcept { return nodes_.empty(); }

  const Node& node(NodeId id) const { return nodes_.at(id); }
  /// Throw std::out_of_range on an unknown id; see NodeRange for how long
  /// the view stays valid.
  NodeRange successors(NodeId id) const {
    return view(succ_runs_, succ_pool_, id);
  }
  NodeRange predecessors(NodeId id) const {
    return view(pred_runs_, pred_pool_, id);
  }

  std::size_t in_degree(NodeId id) const { return pred_runs_.at(id).size; }
  std::size_t out_degree(NodeId id) const { return succ_runs_.at(id).size; }
  bool has_edge(NodeId src, NodeId dst) const;

  /// Nodes with no predecessors / successors, ascending by id.
  std::vector<NodeId> entry_nodes() const;
  std::vector<NodeId> exit_nodes() const;

  /// A topological order (Kahn's algorithm, ties broken by ascending id —
  /// deterministic). The graph is acyclic by construction. While every edge
  /// points from a lower id to a higher one that order is 0 .. n-1, which
  /// is returned without the search.
  std::vector<NodeId> topological_order() const;

  /// Longest path length counted in *nodes* (levels); 0 for an empty graph.
  std::size_t depth() const;

  /// True when every node can reach (or be reached from) the rest, treating
  /// edges as undirected — a sanity check for generated workloads.
  bool is_weakly_connected() const;

  /// Counts of each kernel name, for workload reporting.
  std::vector<std::pair<std::string, std::size_t>> kernel_histogram() const;

 private:
  /// One node's slice of an adjacency pool: [offset, offset + size) holds
  /// its neighbours, and the run may grow to `capacity` in place.
  struct Run {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t capacity = 0;
  };

  static NodeRange view(const std::vector<Run>& runs,
                        const std::vector<NodeId>& pool, NodeId id) {
    const Run& run = runs.at(id);
    const NodeId* first = pool.data() + run.offset;
    return {first, first + run.size};
  }
  /// Appends `value` to node `id`'s run, moving a full run to the pool's
  /// end with twice the room (a run already at the end grows in place).
  static void append(std::vector<Run>& runs, std::vector<NodeId>& pool,
                     NodeId id, NodeId value);
  bool creates_cycle(NodeId src, NodeId dst) const;

  std::vector<Node> nodes_;
  std::vector<Run> succ_runs_;
  std::vector<Run> pred_runs_;
  std::vector<NodeId> succ_pool_;
  std::vector<NodeId> pred_pool_;
  std::size_t edge_count_ = 0;
  /// Every edge so far points from a lower id to a higher one, so a new
  /// edge that does too cannot close a cycle.
  bool forward_ = true;
};

/// Order-sensitive FNV-1a hash of a graph's full structure and labels
/// (kernels, data sizes, release times, edges). Two graphs hash equal iff
/// they serialise identically — the cheap fingerprint the golden regression
/// tests pin generator outputs with.
std::uint64_t structure_hash(const Dag& dag);

/// Exact structural equality: same node count, every node's kernel, data
/// size, and release time (bitwise) equal, and identical successor lists.
/// This is the serialise-identically relation structure_hash fingerprints,
/// decided exactly (no hash collisions).
bool identical(const Dag& a, const Dag& b);

}  // namespace apt::dag
