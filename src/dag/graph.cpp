#include "dag/graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>

#include "lut/lookup_table.hpp"

namespace apt::dag {

NodeId Dag::add_node(std::string kernel, std::uint64_t data_size,
                     double release_ms) {
  if (kernel.empty())
    throw std::invalid_argument("Dag::add_node: empty kernel name");
  if (!std::isfinite(release_ms) || release_ms < 0.0)
    throw std::invalid_argument(
        "Dag::add_node: release time must be finite and >= 0");
  if (nodes_.size() >= static_cast<std::size_t>(kInvalidNode))
    throw std::length_error("Dag::add_node: node limit exceeded");
  nodes_.push_back(
      Node{lut::canonical_kernel_name(kernel), data_size, release_ms});
  succ_runs_.emplace_back();
  pred_runs_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Dag::add_node(const Node& node) {
  return add_node(node.kernel, node.data_size, node.release_ms);
}

void Dag::set_release_ms(NodeId id, double release_ms) {
  if (id >= nodes_.size())
    throw std::invalid_argument("Dag::set_release_ms: unknown node id");
  if (!std::isfinite(release_ms) || release_ms < 0.0)
    throw std::invalid_argument(
        "Dag::set_release_ms: release time must be finite and >= 0");
  nodes_[id].release_ms = release_ms;
}

bool Dag::has_edge(NodeId src, NodeId dst) const {
  const NodeRange succs = successors(src);
  return std::find(succs.begin(), succs.end(), dst) != succs.end();
}

void Dag::append(std::vector<Run>& runs, std::vector<NodeId>& pool, NodeId id,
                 NodeId value) {
  Run& run = runs[id];
  if (run.size == run.capacity) {
    const std::size_t capacity =
        run.capacity == 0 ? 1 : 2 * std::size_t{run.capacity};
    const bool at_end = run.offset + run.size == pool.size();
    const std::size_t offset = at_end ? run.offset : pool.size();
    if (offset + capacity > kInvalidNode)
      throw std::length_error("Dag::add_edge: adjacency pool limit exceeded");
    pool.resize(offset + capacity);
    if (!at_end)
      std::copy_n(pool.begin() + run.offset, run.size, pool.begin() + offset);
    run.offset = static_cast<std::uint32_t>(offset);
    run.capacity = static_cast<std::uint32_t>(capacity);
  }
  pool[run.offset + run.size++] = value;
}

void Dag::add_edge(NodeId src, NodeId dst) {
  if (src >= nodes_.size() || dst >= nodes_.size())
    throw std::invalid_argument("Dag::add_edge: unknown node id");
  if (src == dst) throw std::invalid_argument("Dag::add_edge: self edge");
  if (has_edge(src, dst))
    throw std::invalid_argument("Dag::add_edge: duplicate edge");
  // While every edge points forward, ids are a topological order, so a
  // forward edge cannot close a cycle and needs no search.
  if (!(forward_ && src < dst) && creates_cycle(src, dst))
    throw std::logic_error("Dag::add_edge: edge would create a cycle");
  append(succ_runs_, succ_pool_, src, dst);
  append(pred_runs_, pred_pool_, dst, src);
  forward_ = forward_ && src < dst;
  ++edge_count_;
}

bool Dag::creates_cycle(NodeId src, NodeId dst) const {
  // src -> dst creates a cycle iff src is reachable from dst.
  std::vector<NodeId> stack = {dst};
  std::vector<bool> seen(nodes_.size(), false);
  seen[dst] = true;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    if (n == src) return true;
    for (const NodeId s : successors(n)) {
      if (!seen[s]) {
        seen[s] = true;
        stack.push_back(s);
      }
    }
  }
  return false;
}

std::vector<NodeId> Dag::entry_nodes() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (pred_runs_[i].size == 0) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> Dag::exit_nodes() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (succ_runs_[i].size == 0) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> Dag::topological_order() const {
  std::vector<std::size_t> indeg(nodes_.size());
  for (NodeId i = 0; i < nodes_.size(); ++i) indeg[i] = pred_runs_[i].size;
  // Min-id-first frontier keeps the order deterministic.
  std::vector<NodeId> frontier = entry_nodes();
  std::make_heap(frontier.begin(), frontier.end(), std::greater<>{});
  std::vector<NodeId> order;
  order.reserve(nodes_.size());
  while (!frontier.empty()) {
    std::pop_heap(frontier.begin(), frontier.end(), std::greater<>{});
    const NodeId n = frontier.back();
    frontier.pop_back();
    order.push_back(n);
    for (const NodeId s : successors(n)) {
      if (--indeg[s] == 0) {
        frontier.push_back(s);
        std::push_heap(frontier.begin(), frontier.end(), std::greater<>{});
      }
    }
  }
  if (order.size() != nodes_.size())
    throw std::logic_error("Dag::topological_order: graph has a cycle");
  return order;
}

std::size_t Dag::depth() const {
  if (nodes_.empty()) return 0;
  std::vector<std::size_t> level(nodes_.size(), 1);
  for (const NodeId n : topological_order()) {
    for (const NodeId s : successors(n))
      level[s] = std::max(level[s], level[n] + 1);
  }
  return *std::max_element(level.begin(), level.end());
}

bool Dag::is_weakly_connected() const {
  if (nodes_.empty()) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<NodeId> stack = {0};
  seen[0] = true;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    ++visited;
    auto push = [&](NodeId m) {
      if (!seen[m]) {
        seen[m] = true;
        stack.push_back(m);
      }
    };
    for (const NodeId s : successors(n)) push(s);
    for (const NodeId p : predecessors(n)) push(p);
  }
  return visited == nodes_.size();
}

std::vector<std::pair<std::string, std::size_t>> Dag::kernel_histogram() const {
  std::map<std::string, std::size_t> counts;
  for (const Node& n : nodes_) ++counts[n.kernel];
  return {counts.begin(), counts.end()};
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline void mix_byte(std::uint64_t& h, unsigned char b) {
  h = (h ^ b) * kFnvPrime;
}

inline void mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) mix_byte(h, static_cast<unsigned char>(v >> (8 * i)));
}

}  // namespace

std::uint64_t structure_hash(const Dag& dag) {
  std::uint64_t h = kFnvOffset;
  mix_u64(h, dag.node_count());
  for (NodeId i = 0; i < dag.node_count(); ++i) {
    const Node& n = dag.node(i);
    for (char c : n.kernel) mix_byte(h, static_cast<unsigned char>(c));
    mix_byte(h, 0);  // kernel-name terminator, so "ab"+"c" != "a"+"bc"
    mix_u64(h, n.data_size);
    std::uint64_t release_bits = 0;
    static_assert(sizeof(release_bits) == sizeof(n.release_ms));
    std::memcpy(&release_bits, &n.release_ms, sizeof(release_bits));
    mix_u64(h, release_bits);
  }
  for (NodeId i = 0; i < dag.node_count(); ++i) {
    for (const NodeId s : dag.successors(i)) {
      mix_u64(h, i);
      mix_u64(h, s);
    }
  }
  return h;
}

bool identical(const Dag& a, const Dag& b) {
  if (a.node_count() != b.node_count() || a.edge_count() != b.edge_count())
    return false;
  for (NodeId i = 0; i < a.node_count(); ++i) {
    const Node& na = a.node(i);
    const Node& nb = b.node(i);
    // Bitwise release comparison, matching structure_hash: 0.0 and -0.0
    // compare equal under == but hash (and serialise) differently.
    if (na.kernel != nb.kernel || na.data_size != nb.data_size ||
        std::memcmp(&na.release_ms, &nb.release_ms, sizeof(double)) != 0)
      return false;
    if (a.successors(i) != b.successors(i)) return false;
  }
  return true;
}

}  // namespace apt::dag
