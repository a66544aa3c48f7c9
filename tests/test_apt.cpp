#include "core/apt.hpp"

#include <gtest/gtest.h>

#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "policies/met.hpp"
#include "test_helpers.hpp"

namespace apt::core {
namespace {

TEST(Apt, RejectsAlphaBelowOne) {
  EXPECT_THROW(Apt(0.99), std::invalid_argument);
  EXPECT_THROW(Apt(AptOptions{0.0, true, false}), std::invalid_argument);
  EXPECT_NO_THROW(Apt(1.0));
}

TEST(Apt, NameEncodesConfiguration) {
  EXPECT_EQ(Apt(4.0).name(), "APT(alpha=4.00)");
  EXPECT_EQ(Apt(AptOptions{2.0, false, false}).name(),
            "APT(alpha=2.00)[no-transfer]");
  EXPECT_EQ(Apt(AptOptions{2.0, true, true}).name(), "APT-R(alpha=2.00)");
}

TEST(Apt, TakesTheOptimalProcessorWhenItIsIdle) {
  dag::Dag d;
  d.add_node("k", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{9.0, 2.0}});
  Apt apt(16.0);
  const auto result = test::run_and_validate(apt, d, sys, cost);
  EXPECT_EQ(result.schedule[0].proc, 1u);
  EXPECT_FALSE(result.schedule[0].alternative);
}

TEST(Apt, UsesAlternativeWithinThreshold) {
  // Both kernels best on p0 (1 ms); p1 costs 3 ms. α=4 -> threshold 4:
  // the second kernel takes p1 instead of waiting.
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{1.0, 3.0}, {1.0, 3.0}});
  Apt apt(4.0);
  const auto result = test::run_and_validate(apt, d, sys, cost);
  EXPECT_EQ(result.schedule[0].proc, 0u);
  EXPECT_EQ(result.schedule[1].proc, 1u);
  EXPECT_TRUE(result.schedule[1].alternative);
  EXPECT_DOUBLE_EQ(result.makespan, 3.0);
}

TEST(Apt, WaitsWhenAlternativeExceedsThreshold) {
  // p1 costs 5 ms > threshold 4: behave exactly like MET and wait.
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{1.0, 5.0}, {1.0, 5.0}});
  Apt apt(4.0);
  const auto result = test::run_and_validate(apt, d, sys, cost);
  EXPECT_EQ(result.schedule[1].proc, 0u);
  EXPECT_DOUBLE_EQ(result.schedule[1].wait_ms(), 1.0);
  EXPECT_DOUBLE_EQ(result.makespan, 2.0);
}

TEST(Apt, ThresholdBoundaryIsInclusive) {
  // exec(p1) == α·x exactly: the alternative is taken (Eq. 8 uses <=).
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{1.0, 4.0}, {1.0, 4.0}});
  Apt apt(4.0);
  const auto result = test::run_and_validate(apt, d, sys, cost);
  EXPECT_EQ(result.schedule[1].proc, 1u);
  EXPECT_TRUE(result.schedule[1].alternative);
}

TEST(Apt, PicksTheCheapestQualifyingAlternative) {
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(3);
  sim::MatrixCostModel cost({{1.0, 3.5, 2.5}, {1.0, 3.5, 2.5}});
  Apt apt(4.0);
  const auto result = test::run_and_validate(apt, d, sys, cost);
  EXPECT_EQ(result.schedule[1].proc, 2u);  // 2.5 < 3.5, both within 4
}

TEST(Apt, TransferTimeCountsAgainstTheThreshold) {
  // The alternative's exec (3) fits the threshold (4) but exec+transfer
  // (3 + 2) does not: APT must wait.
  dag::Dag d;
  d.add_node("src", 1);
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{0.5, 9.0}, {1.0, 3.0}, {1.0, 3.0}});
  cost.set_comm_cost(0, 1, 2.0);
  cost.set_comm_cost(0, 2, 2.0);
  Apt apt(4.0);
  const auto result = test::run_and_validate(apt, d, sys, cost);
  // src on p0; a and b both ready at 0.5, both best on p0.
  EXPECT_EQ(result.schedule[1].proc, 0u);
  EXPECT_EQ(result.schedule[2].proc, 0u);  // waited: 3+2 > 4
  EXPECT_FALSE(result.schedule[2].alternative);
}

TEST(Apt, TransferUnawareVariantIgnoresTransferInTheThreshold) {
  dag::Dag d;
  d.add_node("src", 1);
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{0.5, 9.0}, {1.0, 3.0}, {1.0, 3.0}});
  cost.set_comm_cost(0, 1, 2.0);
  cost.set_comm_cost(0, 2, 2.0);
  Apt apt(AptOptions{4.0, /*transfer_aware=*/false, false});
  const auto result = test::run_and_validate(apt, d, sys, cost);
  EXPECT_EQ(result.schedule[2].proc, 1u);  // 3 <= 4, transfer ignored
  EXPECT_TRUE(result.schedule[2].alternative);
}

TEST(Apt, AlphaOneOnlyAcceptsEquallyGoodAlternatives) {
  // α=1: an alternative qualifies only when exec+transfer <= x. With a
  // strictly slower p1 APT behaves exactly like MET.
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{2.0, 2.5}, {2.0, 2.5}});
  Apt apt(1.0);
  const auto result = test::run_and_validate(apt, d, sys, cost);
  EXPECT_EQ(result.schedule[1].proc, 0u);
  // ...but an exactly-equal processor is used immediately:
  sim::MatrixCostModel tie({{2.0, 2.0}, {2.0, 2.0}});
  Apt apt1(1.0);
  const auto tied = test::run_and_validate(apt1, d, sys, tie);
  EXPECT_EQ(tied.schedule[1].proc, 1u);
}

TEST(Apt, HugeAlphaNeverWaitsOnTheFigure5Workload) {
  std::vector<dag::Node> series = {
      {"nw", 16777216}, {"bfs", 2034736}, {"bfs", 2034736},
      {"bfs", 2034736}, {"cd", 250000}};
  const dag::Dag graph = dag::make_type1(series);
  const sim::System sys = test::paper_system(1e9);
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  Apt apt(1e6);
  const auto result = test::run_and_validate(apt, graph, sys, cost);
  // All three processors are used at t≈0 (no level-1 kernel waits).
  std::size_t at_zero = 0;
  for (const auto& k : result.schedule) {
    if (k.exec_start < 1e-3) ++at_zero;
  }
  EXPECT_EQ(at_zero, 3u);
}

TEST(Apt, MatchesMetAtAlphaOneOnPaperWorkloads) {
  // With α=1 alternatives are (almost) never eligible given the LUT's
  // strictly-ordered execution times: APT degenerates to MET exactly.
  for (dag::DfgType type : {dag::DfgType::Type1, dag::DfgType::Type2}) {
    const dag::Dag graph = dag::paper_graph(type, 0);
    const sim::System sys = test::paper_system();
    const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
    Apt apt(1.0);
    policies::Met met;
    const auto apt_result = test::run_and_validate(apt, graph, sys, cost);
    const auto met_result = test::run_and_validate(met, graph, sys, cost);
    EXPECT_DOUBLE_EQ(apt_result.makespan, met_result.makespan)
        << dag::to_string(type);
  }
}

TEST(Apt, AlternativeNeverViolatesItsOwnThreshold) {
  // Property: on real workloads every alternative assignment satisfied
  // exec + transfer <= α·x at decision time. We re-check exec <= α·x
  // post-hoc (transfer can only add, so this is a necessary condition the
  // schedule must show).
  const double alpha = 4.0;
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 5);
  const sim::System sys = test::paper_system();
  const auto table = lut::paper_lookup_table();
  const sim::LutCostModel cost(table, sys);
  Apt apt(alpha);
  const auto result = test::run_and_validate(apt, graph, sys, cost);
  for (const auto& k : result.schedule) {
    if (!k.alternative) continue;
    const auto& node = graph.node(k.node);
    const double x =
        table.exec_time_ms(node.kernel, node.data_size,
                           table.best_processor(node.kernel, node.data_size));
    EXPECT_LE(k.exec_ms, alpha * x + 1e-9) << "node " << k.node;
    // And it genuinely is an alternative (not the optimal category).
    EXPECT_NE(sys.processor(k.proc).type,
              table.best_processor(node.kernel, node.data_size));
  }
}

}  // namespace
}  // namespace apt::core
