#include "core/apt.hpp"

#include <gtest/gtest.h>

#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "test_helpers.hpp"

// APT-R: the remaining-time extension (AptOptions::consider_remaining_time).

namespace apt::core {
namespace {

/// The registry's apt-r row: APT that sends a kernel to the alternative
/// only when that beats waiting for p_min, (remaining time on p_min) + x.
Apt apt_r(double alpha) { return Apt(AptOptions{alpha, true, true}); }

TEST(AptRemaining, NameAndConfiguration) {
  const Apt policy = apt_r(8.0);
  EXPECT_EQ(policy.name(), "APT-R(alpha=8.00)");
  EXPECT_TRUE(policy.is_dynamic());
  EXPECT_TRUE(policy.options().consider_remaining_time);
  EXPECT_TRUE(policy.options().transfer_aware);
}

TEST(AptRemaining, WaitsWhenTheBestProcessorFreesSoon) {
  // p0 finishes kernel a in 1 ms; waiting costs 1 + 1 = 2 < alternative 3:
  // plain APT would take p1, APT-R waits.
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{1.0, 3.0}, {1.0, 3.0}});

  Apt plain(4.0);
  const auto plain_result = test::run_and_validate(plain, d, sys, cost);
  EXPECT_EQ(plain_result.schedule[1].proc, 1u);

  Apt refined = apt_r(4.0);
  const auto refined_result = test::run_and_validate(refined, d, sys, cost);
  EXPECT_EQ(refined_result.schedule[1].proc, 0u);
  EXPECT_DOUBLE_EQ(refined_result.makespan, 2.0);  // beats plain APT's 3.0
}

TEST(AptRemaining, TakesTheAlternativeWhenWaitingIsWorse) {
  // p0 is busy for 10 ms; waiting costs 10 + 1 = 11 > alternative 3.
  dag::Dag d;
  d.add_node("long", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{10.0, 30.0}, {1.0, 3.0}});
  Apt refined = apt_r(4.0);
  const auto result = test::run_and_validate(refined, d, sys, cost);
  EXPECT_EQ(result.schedule[1].proc, 1u);
  EXPECT_TRUE(result.schedule[1].alternative);
  EXPECT_DOUBLE_EQ(result.makespan, 10.0);
}

TEST(AptRemaining, StillRespectsTheThreshold) {
  // Waiting is terrible (100 ms) but the alternative (5) exceeds the
  // threshold (4): APT-R must wait regardless.
  dag::Dag d;
  d.add_node("long", 1);
  d.add_node("b", 1);
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{100.0, 300.0}, {1.0, 5.0}});
  Apt refined = apt_r(4.0);
  const auto result = test::run_and_validate(refined, d, sys, cost);
  EXPECT_EQ(result.schedule[1].proc, 0u);
  EXPECT_FALSE(result.schedule[1].alternative);
}

TEST(AptRemaining, StaysCompetitiveWithAptOnPaperWorkloads) {
  // Empirical finding of this reproduction (printed by the ablation
  // bench): the thesis's future-work refinement is NOT a free win — its
  // wait-cost estimate ignores contention from *other* kernels also
  // waiting for p_min, so on the Type-1 workloads it lands a few percent
  // behind plain APT. We pin that it stays within 10% (a large
  // regression would indicate a broken implementation, not the known
  // estimator bias).
  double apt_total = 0.0;
  double aptr_total = 0.0;
  const sim::System sys = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  for (std::size_t i = 0; i < 10; ++i) {
    const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, i);
    Apt apt(4.0);
    Apt aptr = apt_r(4.0);
    apt_total += test::run_and_validate(apt, graph, sys, cost).makespan;
    aptr_total += test::run_and_validate(aptr, graph, sys, cost).makespan;
  }
  EXPECT_LE(aptr_total, apt_total * 1.10);
  EXPECT_GE(aptr_total, apt_total * 0.5);  // sanity: same order of magnitude
}

}  // namespace
}  // namespace apt::core
