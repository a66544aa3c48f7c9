// Exact allocation gates: this binary replaces the global operator new and
// delete with counting ones, so a test can say how many blocks and bytes a
// piece of code asks the allocator for. The counts are exact and
// independent of the host and the build type, unlike a timer.
//
//   * A dag::Dag is five blocks (nodes, two adjacency run tables, two
//     adjacency pools) whatever its size, so copying one allocates 5 blocks.
//     With one std::vector per adjacency list a copy of the paper's 46-node
//     Type-1 graph allocated 49, and of the 157-node one 160.
//   * Admitting an instance into an open run costs a handful of blocks: the
//     copy the source hands over and the amortised growth of the engine's
//     queues and logs. The event core's slot- and edge-indexed tables grow
//     with realloc (util::PodArray), which this count does not see; they
//     double, so they cost O(log N) growths in all. The admission lower
//     bound reuses the core's scratch, and the free slot and edge ranges
//     sit in vectors that keep their capacity. An open MET burst over
//     pre-built 46-kernel Type-1 graphs allocated about 58 blocks per
//     admitted app when the graph was a vector of vectors and those tables
//     were std::vectors, and about 14 while the lower bound allocated its
//     own scratch and the free ranges were std::map nodes.
//   * A dense cost table (sim::PrecomputedCostModel) stores each edge's
//     weight once per direction and the run's pair tables, O(n·P + E)
//     bytes. When it held a P x P price matrix per edge, a 300-kernel
//     layered graph on twelve processors took 7.6 MB instead of 139 kB.
//   * The graph builders reserve their series size, so the node table and
//     both run tables are allocated once, not grown by doubling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/precomputed_cost_model.hpp"
#include "sim/system.hpp"
#include "stream/stream_engine.hpp"
#include "test_helpers.hpp"

namespace {

// Single-threaded: gtest runs the tests one by one, and the stream engine
// runs on the calling thread.
bool g_counting = false;
std::uint64_t g_blocks = 0;
std::uint64_t g_bytes = 0;

void* counted_new(std::size_t size) {
  if (g_counting) {
    ++g_blocks;
    g_bytes += size;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

/// What a piece of code asked operator new for.
struct Allocated {
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
};

/// Blocks and bytes allocated through operator new while `body` runs.
template <typename Body>
Allocated allocated(Body&& body) {
  g_blocks = 0;
  g_bytes = 0;
  g_counting = true;
  body();
  g_counting = false;
  return {g_blocks, g_bytes};
}

/// Blocks allocated through operator new while `body` runs.
template <typename Body>
std::uint64_t blocks_allocated(Body&& body) {
  return allocated(std::forward<Body>(body)).blocks;
}

}  // namespace

// Every replaceable form, so no block crosses between this allocator and the
// runtime's (a sanitizer's runtime would report the mismatch).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_new(size);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace apt {
namespace {

TEST(AllocGates, CopyingAPaperGraphAllocatesFiveBlocks) {
  // paper_graph(Type1, 0) has 46 kernels, paper_graph(Type1, 9) 157.
  for (const std::size_t experiment : {0u, 9u}) {
    const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, experiment);
    ASSERT_GT(graph.edge_count(), 0u);
    std::optional<dag::Dag> copy;
    const std::uint64_t blocks = blocks_allocated([&] { copy.emplace(graph); });
    EXPECT_EQ(blocks, 5u) << graph.node_count() << " kernels";
    EXPECT_TRUE(dag::identical(*copy, graph));
    const std::uint64_t moved =
        blocks_allocated([&] { const dag::Dag taken = std::move(*copy); });
    EXPECT_EQ(moved, 0u) << graph.node_count() << " kernels";
  }
}

/// Blocks per admitted app of an open MET burst over `apps` pre-built
/// 46-kernel Type-1 graphs on the paper's platform (the perfbench
/// burst-ideal shape), counted over StreamEngine::run only.
double burst_blocks_per_app(std::size_t apps) {
  const lut::LookupTable table = lut::paper_lookup_table();
  const sim::System system(sim::SystemConfig::paper_default());
  const sim::LutCostModel cost(table, system);
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  std::vector<dag::Dag> graphs;
  graphs.reserve(apps);
  for (std::size_t k = 0; k < apps; ++k)
    graphs.push_back(scenario::generate("type1", 46, 1000 + k, pool));

  stream::StreamOptions options;
  options.arrivals = stream::ArrivalSpec::poisson(0.005, 1);
  options.max_apps = apps;
  const auto source = [&graphs](std::size_t k) { return graphs.at(k); };
  stream::StreamEngine engine(system, cost, source, options);
  const std::unique_ptr<sim::Policy> met = core::make_policy("met");
  std::size_t completed = 0;
  const std::uint64_t blocks = blocks_allocated(
      [&] { completed = engine.run(*met).metrics.apps_completed; });
  EXPECT_EQ(completed, apps);
  return static_cast<double>(blocks) / static_cast<double>(apps);
}

TEST(AllocGates, AnOpenBurstAllocatesAFewBlocksPerAdmittedApp) {
  for (const std::size_t apps : {120u, 480u}) {
    EXPECT_LE(burst_blocks_per_app(apps), 10.0) << apps << " apps";
  }
}

TEST(AllocGates, ADenseModelRequestsBytesLinearInNodesAndEdges) {
  // A 300-kernel layered graph on twelve routed processors. Its bound is 8
  // bytes per exec entry (n x P), per stored edge weight (one per edge in
  // each direction) and per node offset (two per node, plus two ends), and
  // one pair table of P x P prices: O(n·P + E). An edge priced into a P x P
  // matrix alone would take 8 P^2 = 1,152 bytes.
  const lut::LookupTable table = test::fabric_table();
  const sim::System system = test::fabric_system("mesh:3x4");
  const sim::LutCostModel lut(table, system);
  const sim::TopologyCostModel routed(lut, system);
  const dag::Dag graph = scenario::generate(
      "layered", 300, 7, dag::KernelPool::from_lookup_table(table));
  const std::uint64_t n = graph.node_count();
  const std::uint64_t edges = graph.edge_count();
  const std::uint64_t procs = system.proc_count();
  ASSERT_GT(edges, 10 * n);
  const std::uint64_t bound = 8 * (n * procs + 2 * edges + 2 * (n + 1)) +
                              sizeof(sim::PairPrice) * procs * procs;
  std::optional<sim::PrecomputedCostModel> dense;
  const Allocated built =
      allocated([&] { dense.emplace(graph, system, routed); });
  EXPECT_LE(built.bytes, bound) << n << " kernels, " << edges << " edges";
}

TEST(AllocGates, PaperShapesAllocateTheirNodeAndRunTablesOnce) {
  // A build from a prepared series allocates the node table and both run
  // tables once (3 blocks), plus each adjacency pool's growth and, for
  // Type-2, its three block lists. Type-1's two pools grow by doubling to
  // n - 1 entries, ceil(log2(n - 1)) + 1 blocks each: 3 + 14 blocks at 46
  // kernels and 3 + 18 at 157. Type-2's pools take 18 and 22 blocks. Tables
  // grown by doubling took 3 (ceil(log2 n) + 1) blocks, 18 and 24 more.
  struct Case {
    dag::DfgType type;
    std::size_t kernels;
    std::uint64_t blocks;
  };
  const dag::KernelPool pool = dag::KernelPool::paper_pool();
  for (const Case& c : {Case{dag::DfgType::Type1, 46, 17},
                        Case{dag::DfgType::Type1, 157, 21},
                        Case{dag::DfgType::Type2, 46, 24},
                        Case{dag::DfgType::Type2, 157, 28}}) {
    const std::vector<dag::Node> series =
        dag::random_kernel_series(c.kernels, 11, pool);
    std::optional<dag::Dag> graph;
    const std::uint64_t blocks = blocks_allocated([&] {
      graph.emplace(c.type == dag::DfgType::Type1 ? dag::make_type1(series)
                                                  : dag::make_type2(series));
    });
    EXPECT_EQ(blocks, c.blocks)
        << dag::to_string(c.type) << ", " << c.kernels << " kernels";
  }
}

}  // namespace
}  // namespace apt
