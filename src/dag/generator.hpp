// Workload generation (thesis §3.2).
//
// An input stream of applications is modelled as a DFG of kernels. The
// thesis evaluates two graph families built from a random series of kernels:
//
//  * DFG Type-1 (Figure 3): n−1 kernels with no dependencies ("level-1"),
//    all available in parallel, plus a final n-th kernel that depends on all
//    of them.
//  * DFG Type-2 (Figure 4): dependency-rich — three diamond-shaped "kernel
//    graph blocks" (one kernel on top, several independent kernels in the
//    middle, one at the bottom) connected in sequence by short chains, a few
//    independent singleton kernels alongside, and a final join kernel.
//    Changing the kernel count only changes the blocks' middle widths.
//
// The kernel mix is the paper's seven kernels (Table 5) with data sizes from
// the lookup table; generation is fully deterministic per seed.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/graph.hpp"
#include "lut/lookup_table.hpp"

namespace apt::dag {

/// The two workload families of the thesis.
enum class DfgType { Type1 = 1, Type2 = 2 };

const char* to_string(DfgType type) noexcept;

/// A pool of (kernel, admissible data sizes) the generator samples from.
struct KernelPool {
  struct Item {
    std::string kernel;
    std::vector<std::uint64_t> sizes;
  };
  std::vector<Item> items;

  /// The paper's pool: mm/mi/cd at the seven measured linear-algebra sizes,
  /// nw/bfs/srad/gem at their single measured sizes.
  static KernelPool paper_pool();

  /// Derives a pool from an arbitrary lookup table (every kernel with all
  /// of its measured sizes).
  static KernelPool from_lookup_table(const lut::LookupTable& table);
};

/// Samples a random series of n kernels (uniform kernel, then uniform size).
std::vector<Node> random_kernel_series(std::size_t n, std::uint64_t seed,
                                       const KernelPool& pool);

/// Builds a DFG Type-1 graph from a kernel series (n >= 2): nodes
/// 0..n-2 are independent, node n-1 depends on all of them.
Dag make_type1(const std::vector<Node>& series);

/// Builds a DFG Type-2 graph from a kernel series (n >= 15): three diamond
/// blocks in sequence joined by 1-kernel chains, three independent
/// singletons, and a final join kernel. Node ids follow the structural
/// order (top1, mids1..., bottom1, chain1, top2, ...), which is also the
/// arrival order seen by dynamic policies.
Dag make_type2(const std::vector<Node>& series);

/// Convenience: generate a random series and shape it.
Dag generate(DfgType type, std::size_t n, std::uint64_t seed,
             const KernelPool& pool);

/// Number of middle kernels in each of the three Type-2 blocks for a total
/// kernel count n (exposed for the structure tests).
std::array<std::size_t, 3> type2_block_widths(std::size_t n);

// --- The paper's experiments ------------------------------------------------

/// Kernel counts of the ten experiments (Tables 15/16):
/// {46, 58, 50, 73, 69, 81, 125, 93, 132, 157}.
const std::vector<std::size_t>& paper_experiment_sizes();

/// The i-th (0-based) experiment graph of a family, deterministic across
/// runs and platforms. Throws std::out_of_range for i >= 10.
Dag paper_graph(DfgType type, std::size_t experiment_index);

/// All ten experiment graphs of a family.
std::vector<Dag> paper_workload(DfgType type);

// --- Extra generator for property tests and ablations ------------------------

/// Random layered DAG: `layers` ranks with roughly equal node counts; each
/// node gets an edge from a random node of the previous rank plus extra
/// edges with probability `edge_prob` (0..1). Connected and acyclic.
Dag random_layered_dag(std::size_t n, std::size_t layers, double edge_prob,
                       std::uint64_t seed, const KernelPool& pool);

// --- Generalised scenario shapes (consumed by src/scenario/) ------------------
//
// Like make_type1/make_type2, these shape a pre-sampled kernel series into a
// DAG; node ids follow the structural construction order, which is also the
// arrival order dynamic policies see. All randomness is drawn from a
// dedicated structure RNG salted from `seed`, so the same (series, seed)
// always yields the same graph.

/// Fork–join: an entry kernel forks into a random-width block (2..8) of
/// independent kernels that join into one kernel, which forks again until
/// the series is exhausted (a short tail extends the chain). Requires
/// n >= 2.
Dag make_fork_join(const std::vector<Node>& series, std::uint64_t seed);

/// Random in-tree (reduction): every kernel except the root (the last node)
/// has exactly one successor, drawn uniformly among the later nodes that
/// still have fewer than `branching` predecessors — many entries, one exit
/// (Type-1 is the star special case). Requires n >= 2, branching >= 2.
Dag make_in_tree(const std::vector<Node>& series, std::uint64_t seed,
                 std::size_t branching = 3);

/// Random out-tree (broadcast): the mirror image — one entry (node 0), every
/// other kernel has exactly one predecessor with at most `branching`
/// successors per node. Requires n >= 2, branching >= 2.
Dag make_out_tree(const std::vector<Node>& series, std::uint64_t seed,
                  std::size_t branching = 3);

/// Tasks of a T-tile right-looking tiled Cholesky/LU factorisation:
/// T(T+1)(T+2)/6.
std::size_t cholesky_task_count(std::size_t tiles);

/// Largest tile count whose task count fits into n kernels (n >= 4; throws
/// std::invalid_argument below that).
std::size_t cholesky_tiles_for(std::size_t n);

/// Tiled Cholesky/LU-style task graph: the POTRF/TRSM/SYRK-GEMM dependency
/// structure over the largest tile grid fitting the series; leftover
/// kernels become post-factorisation tasks depending on the final POTRF.
/// Fully structural (no randomness). Requires n >= 4.
Dag make_cholesky(const std::vector<Node>& series);

/// Turns an all-at-time-zero workload into a streaming one: the graph's
/// entry kernels receive exponentially distributed inter-arrival gaps with
/// the given mean (a Poisson arrival process), in ascending node-id order.
/// Non-entry kernels keep release 0 (they are gated by their
/// dependencies). Deterministic per seed; mean must be finite and
/// positive, and a gap sum that overflows throws like any infinite release.
///
/// Seed contract: the k-th gap is the k-th util::exponential_interval_ms
/// draw of util::Rng(seed) — one uniform01() per entry node, consumed in
/// ascending entry-id order, nothing else drawn from the generator. This is
/// the same contract stream::ArrivalProcess uses for its Poisson mode, so a
/// seed names one arrival sequence across both the single-graph shaper and
/// the open-system stream engine.
void apply_poisson_arrivals(Dag& dag, double mean_interarrival_ms,
                            std::uint64_t seed);

}  // namespace apt::dag
