#include "dag/generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "lut/paper_data.hpp"
#include "util/rng.hpp"

namespace apt::dag {

const char* to_string(DfgType type) noexcept {
  return type == DfgType::Type1 ? "DFG Type-1" : "DFG Type-2";
}

KernelPool KernelPool::paper_pool() {
  return from_lookup_table(lut::paper_lookup_table());
}

KernelPool KernelPool::from_lookup_table(const lut::LookupTable& table) {
  KernelPool pool;
  for (const std::string& kernel : table.kernels())
    pool.items.push_back({kernel, table.sizes_for(kernel)});
  return pool;
}

std::vector<Node> random_kernel_series(std::size_t n, std::uint64_t seed,
                                       const KernelPool& pool) {
  if (pool.items.empty())
    throw std::invalid_argument("random_kernel_series: empty kernel pool");
  for (const auto& item : pool.items) {
    if (item.sizes.empty())
      throw std::invalid_argument(
          "random_kernel_series: kernel '" + item.kernel + "' has no sizes");
  }
  util::Rng rng(seed);
  std::vector<Node> series;
  series.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& item =
        pool.items[static_cast<std::size_t>(rng.uniform_u64(pool.items.size()))];
    const std::uint64_t size =
        item.sizes[static_cast<std::size_t>(rng.uniform_u64(item.sizes.size()))];
    series.push_back(Node{item.kernel, size});
  }
  return series;
}

Dag make_type1(const std::vector<Node>& series) {
  if (series.size() < 2)
    throw std::invalid_argument("make_type1: need at least 2 kernels");
  Dag dag;
  for (const Node& n : series) dag.add_node(n);
  const NodeId sink = static_cast<NodeId>(series.size() - 1);
  for (NodeId i = 0; i < sink; ++i) dag.add_edge(i, sink);
  return dag;
}

std::array<std::size_t, 3> type2_block_widths(std::size_t n) {
  // Structural overhead: 3 blocks x (top + bottom) = 6, two 1-kernel chains
  // between consecutive blocks, 3 independent singletons, 1 final join.
  constexpr std::size_t kFixed = 6 + 2 + 3 + 1;
  if (n < kFixed + 3)
    throw std::invalid_argument(
        "type2_block_widths: need at least " + std::to_string(kFixed + 3) +
        " kernels");
  const std::size_t mids = n - kFixed;
  std::array<std::size_t, 3> widths{mids / 3, mids / 3, mids / 3};
  for (std::size_t i = 0; i < mids % 3; ++i) ++widths[i];
  return widths;
}

Dag make_type2(const std::vector<Node>& series) {
  const auto widths = type2_block_widths(series.size());
  Dag dag;
  std::size_t next = 0;
  auto take = [&] {
    return dag.add_node(series.at(next++));
  };

  NodeId prev_tail = kInvalidNode;  // bottom of previous block or chain node
  std::array<NodeId, 3> bottoms{};
  for (std::size_t b = 0; b < 3; ++b) {
    if (b > 0) {
      // 1-kernel chain connecting the previous block to this one.
      const NodeId chain = take();
      dag.add_edge(prev_tail, chain);
      prev_tail = chain;
    }
    const NodeId top = take();
    if (prev_tail != kInvalidNode) dag.add_edge(prev_tail, top);
    std::vector<NodeId> mids;
    mids.reserve(widths[b]);
    for (std::size_t i = 0; i < widths[b]; ++i) mids.push_back(take());
    const NodeId bottom = take();
    for (const NodeId mid : mids) {
      dag.add_edge(top, mid);
      dag.add_edge(mid, bottom);
    }
    bottoms[b] = bottom;
    prev_tail = bottom;
  }

  // Independent singletons running alongside the block pipeline.
  std::array<NodeId, 3> singles{};
  for (NodeId& s : singles) s = take();

  // Final join kernel: depends on the last block and every singleton.
  const NodeId join = take();
  dag.add_edge(bottoms[2], join);
  for (const NodeId s : singles) dag.add_edge(s, join);

  if (next != series.size())
    throw std::logic_error("make_type2: internal kernel accounting error");
  return dag;
}

Dag generate(DfgType type, std::size_t n, std::uint64_t seed,
             const KernelPool& pool) {
  const std::vector<Node> series = random_kernel_series(n, seed, pool);
  return type == DfgType::Type1 ? make_type1(series) : make_type2(series);
}

const std::vector<std::size_t>& paper_experiment_sizes() {
  static const std::vector<std::size_t> sizes = {46, 58,  50, 73,  69,
                                                 81, 125, 93, 132, 157};
  return sizes;
}

namespace {
std::uint64_t paper_seed(DfgType type, std::size_t index) {
  return 0xA9700000ULL + static_cast<std::uint64_t>(type) * 1000 + index;
}
}  // namespace

Dag paper_graph(DfgType type, std::size_t experiment_index) {
  const auto& sizes = paper_experiment_sizes();
  if (experiment_index >= sizes.size())
    throw std::out_of_range("paper_graph: experiment index out of range");
  return generate(type, sizes[experiment_index],
                  paper_seed(type, experiment_index), KernelPool::paper_pool());
}

std::vector<Dag> paper_workload(DfgType type) {
  std::vector<Dag> graphs;
  graphs.reserve(paper_experiment_sizes().size());
  for (std::size_t i = 0; i < paper_experiment_sizes().size(); ++i)
    graphs.push_back(paper_graph(type, i));
  return graphs;
}

void apply_poisson_arrivals(Dag& dag, double mean_interarrival_ms,
                            std::uint64_t seed) {
  if (!std::isfinite(mean_interarrival_ms) || !(mean_interarrival_ms > 0.0))
    throw std::invalid_argument(
        "apply_poisson_arrivals: mean gap must be finite and positive");
  // Seed contract (shared with stream::ArrivalProcess): the k-th gap is the
  // k-th exponential_interval_ms draw of util::Rng(seed), consumed in
  // ascending entry-node-id order — one uniform per entry, nothing else
  // touches the generator. Same seed, same arrival sequence, everywhere.
  util::Rng rng(seed);
  double clock = 0.0;
  for (const NodeId entry : dag.entry_nodes()) {
    clock += util::exponential_interval_ms(rng, mean_interarrival_ms);
    dag.set_release_ms(entry, clock);
  }
}

Dag random_layered_dag(std::size_t n, std::size_t layers, double edge_prob,
                       std::uint64_t seed, const KernelPool& pool) {
  if (layers == 0 || n < layers)
    throw std::invalid_argument("random_layered_dag: need n >= layers >= 1");
  if (edge_prob < 0.0 || edge_prob > 1.0)
    throw std::invalid_argument("random_layered_dag: edge_prob in [0,1]");
  const std::vector<Node> series = random_kernel_series(n, seed, pool);
  util::Rng rng(seed ^ 0xD1B54A32D192ED03ULL);

  Dag dag;
  for (const Node& node : series) dag.add_node(node);

  // Assign nodes to layers in id order so edges always point forward.
  std::vector<std::vector<NodeId>> by_layer(layers);
  for (NodeId i = 0; i < n; ++i)
    by_layer[static_cast<std::size_t>(i) * layers / n].push_back(i);

  for (std::size_t l = 1; l < layers; ++l) {
    for (const NodeId node : by_layer[l]) {
      // Guarantee connectivity with one mandatory parent from layer l-1.
      const auto& prev = by_layer[l - 1];
      const NodeId parent = prev[static_cast<std::size_t>(
          rng.uniform_u64(prev.size()))];
      dag.add_edge(parent, node);
      // Extra edges from any earlier layer.
      for (std::size_t pl = 0; pl < l; ++pl) {
        for (const NodeId cand : by_layer[pl]) {
          if (cand != parent && !dag.has_edge(cand, node) &&
              rng.bernoulli(edge_prob))
            dag.add_edge(cand, node);
        }
      }
    }
  }
  return dag;
}

Dag make_fork_join(const std::vector<Node>& series, std::uint64_t seed) {
  const std::size_t n = series.size();
  if (n < 2)
    throw std::invalid_argument("make_fork_join: need at least 2 kernels");
  util::Rng rng(seed ^ 0xF02C9A11B3D5E7A1ULL);
  Dag dag;
  std::size_t next = 0;
  auto take = [&] { return dag.add_node(series.at(next++)); };

  NodeId head = take();
  while (next < n) {
    const std::size_t remaining = n - next;
    if (remaining < 3) {
      // Not enough kernels for a 2-wide fork plus a join: extend the chain.
      while (next < n) {
        const NodeId tail = take();
        dag.add_edge(head, tail);
        head = tail;
      }
      break;
    }
    const std::size_t max_width = std::min<std::size_t>(remaining - 1, 8);
    const std::size_t width = 2 + rng.uniform_u64(max_width - 1);  // [2, max]
    std::vector<NodeId> mids;
    mids.reserve(width);
    for (std::size_t i = 0; i < width; ++i) {
      mids.push_back(take());
      dag.add_edge(head, mids.back());
    }
    const NodeId join = take();
    for (const NodeId mid : mids) dag.add_edge(mid, join);
    head = join;
  }
  return dag;
}

namespace {

/// Shared parent-picking machinery of the two tree builders: draws uniformly
/// from the open set and retires a candidate once it reaches `branching`
/// attachments.
class OpenSet {
 public:
  OpenSet(std::size_t node_count, NodeId first, std::size_t branching)
      : branching_(branching), attached_count_(node_count, 0) {
    open_.push_back(first);
  }

  NodeId pick(util::Rng& rng) {
    const std::size_t at = static_cast<std::size_t>(
        rng.uniform_u64(open_.size()));
    const NodeId chosen = open_[at];
    if (++attached_count_[chosen] == branching_) {
      open_[at] = open_.back();
      open_.pop_back();
    }
    return chosen;
  }

  void add(NodeId id) { open_.push_back(id); }

 private:
  std::size_t branching_;
  std::vector<NodeId> open_;
  std::vector<std::size_t> attached_count_;  // indexed by dense NodeId
};

void check_tree_args(const char* what, std::size_t n, std::size_t branching) {
  if (n < 2)
    throw std::invalid_argument(std::string(what) +
                                ": need at least 2 kernels");
  if (branching < 2)
    throw std::invalid_argument(std::string(what) + ": branching must be >= 2");
}

}  // namespace

Dag make_in_tree(const std::vector<Node>& series, std::uint64_t seed,
                 std::size_t branching) {
  const std::size_t n = series.size();
  check_tree_args("make_in_tree", n, branching);
  util::Rng rng(seed ^ 0x1E7EE5A9C3B1D2F5ULL);
  Dag dag;
  for (const Node& node : series) dag.add_node(node);
  // Walk the ids backwards from the root (the last node): every earlier
  // node attaches to one uniformly chosen later node that still has spare
  // fan-in, then becomes a candidate successor itself.
  OpenSet open(n, static_cast<NodeId>(n - 1), branching);
  for (std::size_t i = n - 1; i-- > 0;) {
    dag.add_edge(static_cast<NodeId>(i), open.pick(rng));
    open.add(static_cast<NodeId>(i));
  }
  return dag;
}

Dag make_out_tree(const std::vector<Node>& series, std::uint64_t seed,
                  std::size_t branching) {
  const std::size_t n = series.size();
  check_tree_args("make_out_tree", n, branching);
  util::Rng rng(seed ^ 0x0D7B3E91A5C4F263ULL);
  Dag dag;
  for (const Node& node : series) dag.add_node(node);
  OpenSet open(n, 0, branching);
  for (std::size_t i = 1; i < n; ++i) {
    dag.add_edge(open.pick(rng), static_cast<NodeId>(i));
    open.add(static_cast<NodeId>(i));
  }
  return dag;
}

std::size_t cholesky_task_count(std::size_t tiles) {
  return tiles * (tiles + 1) * (tiles + 2) / 6;
}

std::size_t cholesky_tiles_for(std::size_t n) {
  if (n < cholesky_task_count(2))
    throw std::invalid_argument("make_cholesky: need at least 4 kernels");
  std::size_t tiles = 2;
  while (cholesky_task_count(tiles + 1) <= n) ++tiles;
  return tiles;
}

Dag make_cholesky(const std::vector<Node>& series) {
  const std::size_t n = series.size();
  const std::size_t tiles = cholesky_tiles_for(n);
  Dag dag;
  std::size_t next = 0;
  auto take = [&] { return dag.add_node(series.at(next++)); };
  // Last task that wrote tile (i, j), i >= j, of the lower triangle.
  std::vector<NodeId> writer(tiles * tiles, kInvalidNode);
  auto last_writer = [&](std::size_t i, std::size_t j) -> NodeId& {
    return writer[i * tiles + j];
  };
  auto depend = [&](NodeId from, NodeId to) {
    if (from != kInvalidNode && !dag.has_edge(from, to))
      dag.add_edge(from, to);
  };

  NodeId final_potrf = kInvalidNode;
  for (std::size_t k = 0; k < tiles; ++k) {
    const NodeId potrf = take();  // factorise the diagonal tile (k, k)
    depend(last_writer(k, k), potrf);
    last_writer(k, k) = potrf;
    final_potrf = potrf;
    for (std::size_t i = k + 1; i < tiles; ++i) {
      const NodeId trsm = take();  // solve panel tile (i, k)
      depend(potrf, trsm);
      depend(last_writer(i, k), trsm);
      last_writer(i, k) = trsm;
    }
    for (std::size_t i = k + 1; i < tiles; ++i) {
      for (std::size_t j = k + 1; j <= i; ++j) {
        const NodeId update = take();  // SYRK (j == i) / GEMM on tile (i, j)
        depend(last_writer(i, k), update);
        if (j != i) depend(last_writer(j, k), update);
        depend(last_writer(i, j), update);
        last_writer(i, j) = update;
      }
    }
  }
  // Leftover kernels model post-factorisation work (solves, refinements):
  // independent of each other, gated by the final diagonal factorisation.
  while (next < n) depend(final_potrf, take());
  return dag;
}

}  // namespace apt::dag
