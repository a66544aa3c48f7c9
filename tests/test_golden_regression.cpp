// Golden regression net: exact makespans and λ totals of representative
// (workload, policy) pairs, pinned to 1e-6 ms. These are *not* paper values
// (the thesis's exact graphs are unpublished); they freeze THIS
// implementation's deterministic behaviour so that any unintended change to
// the generators, the engine, a cost model, or a policy shows up as a
// precise diff instead of a silent drift in the reproduced tables.
//
// If a change is *intentional* (e.g. a policy fix), regenerate the values
// with the snippet in the commit history and update them together with the
// explanation.
#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "dag/graph.hpp"
#include "scenario/scenario.hpp"

namespace apt::core {
namespace {

struct Golden {
  int type;               // 1 or 2
  std::size_t experiment; // 0-based index into the paper workload
  const char* policy;
  double makespan_ms;
  double lambda_total_ms;
};

constexpr Golden kGolden[] = {
    {1, 0, "apt:4", 37710.217728, 481962.616000},
    {1, 0, "met", 48115.369000, 622865.162000},
    {1, 0, "heft", 38602.217728, 1251482.418000},
    {1, 0, "peft", 40314.067376, 455293.173000},
    {1, 4, "apt:4", 43246.217728, 697275.015000},
    {1, 4, "met", 53715.486000, 851419.024000},
    {1, 4, "heft", 44509.960000, 2301276.617000},
    {1, 4, "peft", 45703.230000, 865204.500000},
    {1, 9, "apt:4", 84708.408728, 3471530.076000},
    {1, 9, "met", 110495.476728, 4564675.624000},
    {1, 9, "heft", 89405.523000, 11683469.967000},
    {1, 9, "peft", 92109.341376, 5987531.377000},
    {2, 0, "apt:4", 53997.111920, 158290.795168},
    {2, 0, "met", 58943.045136, 195508.124408},
    {2, 0, "heft", 51702.797808, 157117.941232},
    {2, 0, "peft", 58324.022808, 122045.804944},
    {2, 4, "apt:4", 63539.701928, 285131.859368},
    {2, 4, "met", 76084.155664, 381699.981320},
    {2, 4, "heft", 61322.327848, 470030.125512},
    {2, 4, "peft", 70756.509224, 204880.547872},
    {2, 9, "apt:4", 121466.150496, 1495896.565272},
    {2, 9, "met", 150243.092784, 1944616.192080},
    {2, 9, "heft", 121668.583248, 3043364.127144},
    {2, 9, "peft", 132261.398816, 1355254.453840},
};

class GoldenRegression : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenRegression, ExactMakespanAndLambda) {
  const Golden& g = GetParam();
  const auto type = g.type == 1 ? dag::DfgType::Type1 : dag::DfgType::Type2;
  const std::vector<dag::Dag> graphs = {dag::paper_graph(type, g.experiment)};
  const auto cells = run_policy_over(g.policy, graphs, 4.0);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_NEAR(cells[0].makespan_ms, g.makespan_ms, 1e-5)
      << g.policy << " on " << dag::to_string(type) << " #" << g.experiment;
  EXPECT_NEAR(cells[0].lambda_total_ms, g.lambda_total_ms, 1e-4)
      << g.policy << " on " << dag::to_string(type) << " #" << g.experiment;
}

INSTANTIATE_TEST_SUITE_P(
    PinnedOutcomes, GoldenRegression, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      std::string name = std::string("T") + std::to_string(info.param.type) +
                         "_e" + std::to_string(info.param.experiment) + "_" +
                         info.param.policy;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- Scenario-family generators ----------------------------------------------
//
// Same contract for the new workload families: the exact node/edge counts,
// the full structure hash (labels + edges + releases), and one HEFT
// makespan each, so a generator refactor cannot silently reshape the
// scenario space. Regenerate with the snippet in the commit history when a
// change is intentional.

struct ScenarioGolden {
  const char* family;
  std::size_t kernels;
  std::uint64_t seed;
  std::size_t node_count;
  std::size_t edge_count;
  std::uint64_t structure_hash;
  double heft_makespan_ms;
};

constexpr ScenarioGolden kScenarioGolden[] = {
    {"type1", 46, 7, 46, 45, 0x328b3df5cb9fb651ULL, 23531.797000},
    {"type2", 46, 7, 46, 76, 0xb67cc48013abd710ULL, 27439.054064},
    {"layered", 46, 7, 46, 166, 0x2527e605096a2636ULL, 28459.666728},
    {"forkjoin", 46, 7, 46, 75, 0xda20902013307209ULL, 29454.013960},
    {"intree", 46, 7, 46, 45, 0xbe31ecf7e6c83e0eULL, 23656.731632},
    {"outtree", 46, 7, 46, 45, 0x856061cab92c87f6ULL, 25211.576736},
    {"cholesky", 46, 7, 46, 71, 0xcb6ce3b8b0217eecULL, 27591.168848},
};

class ScenarioGoldenRegression
    : public ::testing::TestWithParam<ScenarioGolden> {};

TEST_P(ScenarioGoldenRegression, ExactStructureAndHeftMakespan) {
  const ScenarioGolden& g = GetParam();
  const dag::Dag graph = scenario::generate(g.family, g.kernels, g.seed,
                                            dag::KernelPool::paper_pool());
  EXPECT_EQ(graph.node_count(), g.node_count) << g.family;
  EXPECT_EQ(graph.edge_count(), g.edge_count) << g.family;
  EXPECT_EQ(dag::structure_hash(graph), g.structure_hash) << g.family;
  const auto cells = run_policy_over("heft", {graph}, 4.0);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_NEAR(cells[0].makespan_ms, g.heft_makespan_ms, 1e-5) << g.family;
}

INSTANTIATE_TEST_SUITE_P(
    PinnedGenerators, ScenarioGoldenRegression,
    ::testing::ValuesIn(kScenarioGolden),
    [](const ::testing::TestParamInfo<ScenarioGolden>& info) {
      return std::string(info.param.family);
    });

}  // namespace
}  // namespace apt::core
