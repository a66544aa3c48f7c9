#include "core/apt_ranked.hpp"

#include <gtest/gtest.h>

#include "core/apt.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "policies/heft.hpp"
#include "test_helpers.hpp"

namespace apt::core {
namespace {

TEST(AptRanked, ConfigurationAndClassification) {
  AptRanked policy(4.0);
  EXPECT_EQ(policy.name(), "APT-Ranked(alpha=4.00)");
  // Semi-static: needs the whole DAG for ranks, pays transfers on-line.
  EXPECT_FALSE(policy.is_dynamic());
  EXPECT_EQ(policy.transfer_semantics(),
            sim::TransferSemantics::AtAssignment);
  EXPECT_THROW(AptRanked(0.5), std::invalid_argument);
}

TEST(AptRanked, PrepareComputesHeftRanks) {
  const auto ex = test::topcuoglu_example();
  const sim::System sys = test::generic_system(3);
  AptRanked policy(4.0);
  policy.prepare(ex.dag, sys, *ex.cost);
  const auto expected = policies::heft_upward_ranks(ex.dag, sys, *ex.cost);
  ASSERT_EQ(policy.ranks().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_DOUBLE_EQ(policy.ranks()[i], expected[i]);
}

TEST(AptRanked, ContestedProcessorGoesToTheCriticalKernel) {
  // Two independent kernels both fastest on p0. Kernel 0 is a dead end;
  // kernel 1 heads a chain. FIFO APT gives p0 to kernel 0; APT-Ranked
  // recognises kernel 1's rank and serves it first.
  dag::Dag d;
  d.add_node("deadend", 1);  // 0
  d.add_node("head", 1);     // 1 -> 2 -> 3
  d.add_node("mid", 1);
  d.add_node("tail", 1);
  d.add_edge(1, 2);
  d.add_edge(2, 3);
  const sim::System sys = test::generic_system(2);
  // p0 fast for everything, p1 barely within a 4x threshold.
  sim::MatrixCostModel cost(
      {{4.0, 12.0}, {4.0, 12.0}, {4.0, 12.0}, {4.0, 12.0}});

  Apt fifo(4.0);
  const auto fifo_result = test::run_and_validate(fifo, d, sys, cost);
  EXPECT_EQ(fifo_result.schedule[0].proc, 0u);  // dead end grabbed p0

  AptRanked ranked(4.0);
  const auto ranked_result = test::run_and_validate(ranked, d, sys, cost);
  EXPECT_EQ(ranked_result.schedule[1].proc, 0u);  // chain head got p0
  EXPECT_LE(ranked_result.makespan, fifo_result.makespan);
}

TEST(AptRanked, ThresholdSemanticsUnchanged) {
  // Alternatives beyond alpha*x are still refused.
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{1.0, 5.0}, {1.0, 5.0}});
  AptRanked ranked(4.0);
  const auto result = test::run_and_validate(ranked, d, sys, cost);
  EXPECT_EQ(result.schedule[0].proc, 0u);
  EXPECT_EQ(result.schedule[1].proc, 0u);  // waited: 5 > 4
  EXPECT_FALSE(result.schedule[1].alternative);
}

TEST(AptRanked, MatchesAptOnType1LevelOneByConstruction) {
  // Type-1 level-1 kernels all have rank == own cost + sink tail; the sink
  // dominates nothing — ordering changes little, and results stay valid.
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);
  const sim::System sys = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  AptRanked ranked(4.0);
  test::run_and_validate(ranked, graph, sys, cost);
}

TEST(AptRanked, BeatsFifoAptOnDependencyRichWorkloads) {
  // The headline of the extension (bench_ablation_apt prints it): rank
  // ordering pays on Type-2 graphs where critical chains contend with
  // bulk work. Averaged over the ten paper graphs the ranked variant must
  // not lose, and in practice wins by a wide margin.
  const sim::System sys = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  double fifo_total = 0.0;
  double ranked_total = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, i);
    Apt fifo(4.0);
    AptRanked ranked(4.0);
    fifo_total += test::run_and_validate(fifo, graph, sys, cost).makespan;
    ranked_total += test::run_and_validate(ranked, graph, sys, cost).makespan;
  }
  EXPECT_LT(ranked_total, fifo_total);
}

}  // namespace
}  // namespace apt::core
