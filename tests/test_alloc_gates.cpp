// Exact allocation gates: this binary replaces the global operator new and
// delete with counting ones, so a test can say how many blocks a piece of
// code asks the allocator for. The counts are exact and independent of the
// host and the build type, unlike a timer.
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
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/system.hpp"
#include "stream/stream_engine.hpp"

namespace {

// Single-threaded: gtest runs the tests one by one, and the stream engine
// runs on the calling thread.
bool g_counting = false;
std::uint64_t g_blocks = 0;

void* counted_new(std::size_t size) {
  if (g_counting) ++g_blocks;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

/// Blocks allocated through operator new while `body` runs.
template <typename Body>
std::uint64_t blocks_allocated(Body&& body) {
  g_blocks = 0;
  g_counting = true;
  body();
  g_counting = false;
  return g_blocks;
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

}  // namespace
}  // namespace apt
