#include "policies/static_plan.hpp"

#include <gtest/gtest.h>

#include "policies/heft.hpp"
#include "test_helpers.hpp"

namespace apt::policies {
namespace {

using Busy = std::vector<std::pair<sim::TimeMs, sim::TimeMs>>;

TEST(InsertionSearch, EmptyScheduleStartsAtReadyTime) {
  EXPECT_DOUBLE_EQ(earliest_insertion_start({}, 3.0, 2.0), 3.0);
}

TEST(InsertionSearch, FitsInAGapBetweenTasks) {
  const Busy busy = {{0.0, 4.0}, {10.0, 12.0}};
  EXPECT_DOUBLE_EQ(earliest_insertion_start(busy, 0.0, 5.0), 4.0);
  EXPECT_DOUBLE_EQ(earliest_insertion_start(busy, 0.0, 7.0), 12.0);
}

TEST(InsertionSearch, GapBeforeTheFirstTask) {
  const Busy busy = {{5.0, 9.0}};
  EXPECT_DOUBLE_EQ(earliest_insertion_start(busy, 0.0, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(earliest_insertion_start(busy, 0.0, 6.0), 9.0);
}

TEST(InsertionSearch, ReadyTimeInsideAGap) {
  const Busy busy = {{0.0, 2.0}, {8.0, 10.0}};
  EXPECT_DOUBLE_EQ(earliest_insertion_start(busy, 5.0, 3.0), 5.0);
  EXPECT_DOUBLE_EQ(earliest_insertion_start(busy, 5.0, 4.0), 10.0);
}

TEST(InsertionSearch, ReadyTimeAfterEverything) {
  const Busy busy = {{0.0, 2.0}};
  EXPECT_DOUBLE_EQ(earliest_insertion_start(busy, 7.0, 1.0), 7.0);
}

TEST(InsertionSearch, ExactFitIsAccepted) {
  const Busy busy = {{0.0, 2.0}, {5.0, 6.0}};
  EXPECT_DOUBLE_EQ(earliest_insertion_start(busy, 0.0, 3.0), 2.0);
}

TEST(StaticPlan, MakespanIsLatestFinish) {
  StaticPlan plan;
  plan.tasks = {{0, 0, 0.0, 4.0}, {1, 1, 1.0, 9.0}, {2, 0, 4.0, 6.0}};
  EXPECT_DOUBLE_EQ(plan.planned_makespan(), 9.0);
}

TEST(StaticPlan, PerProcOrderSortsByStart) {
  StaticPlan plan;
  plan.tasks = {{0, 0, 5.0, 6.0}, {1, 0, 0.0, 2.0}, {2, 1, 1.0, 3.0}};
  const auto order = plan.per_proc_order(2);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], (std::vector<dag::NodeId>{1, 0}));
  EXPECT_EQ(order[1], (std::vector<dag::NodeId>{2}));
}

TEST(StaticPlan, PerProcOrderRejectsUnknownProcessor) {
  StaticPlan plan;
  plan.tasks = {{0, 5, 0.0, 1.0}};
  EXPECT_THROW(plan.per_proc_order(2), std::logic_error);
}

TEST(ListSchedule, RespectsPrecedenceWithEqualPriorities) {
  const dag::Dag d = test::chain({{"a", 1}, {"b", 1}, {"c", 1}});
  const sim::System sys = test::generic_system(2);
  sim::MatrixCostModel cost({{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}});
  const auto plan = list_schedule(
      d, sys, cost, {0.0, 0.0, 0.0},
      [](dag::NodeId, sim::ProcId, sim::TimeMs, sim::TimeMs eft) {
        return eft;
      });
  EXPECT_LE(plan.tasks[0].finish, plan.tasks[1].start + 1e-12);
  EXPECT_LE(plan.tasks[1].finish, plan.tasks[2].start + 1e-12);
}

TEST(ListSchedule, PrioritySizeMismatchThrows) {
  const dag::Dag d = test::chain({{"a", 1}, {"b", 1}});
  const sim::System sys = test::generic_system(1);
  sim::MatrixCostModel cost({{1.0}, {1.0}});
  EXPECT_THROW(
      list_schedule(d, sys, cost, {0.0},
                    [](dag::NodeId, sim::ProcId, sim::TimeMs,
                       sim::TimeMs eft) { return eft; }),
      std::invalid_argument);
}

TEST(ListSchedule, HigherPriorityScheduledFirstAmongReady) {
  // Two independent tasks, one processor: priority decides order.
  dag::Dag d;
  d.add_node("low", 1);
  d.add_node("high", 1);
  const sim::System sys = test::generic_system(1);
  sim::MatrixCostModel cost({{2.0}, {2.0}});
  const auto plan = list_schedule(
      d, sys, cost, {1.0, 9.0},
      [](dag::NodeId, sim::ProcId, sim::TimeMs, sim::TimeMs eft) {
        return eft;
      });
  EXPECT_DOUBLE_EQ(plan.tasks[1].start, 0.0);
  EXPECT_DOUBLE_EQ(plan.tasks[0].start, 2.0);
}

TEST(ListSchedule, EqualPrioritiesGoToTheTaskFreedFirst) {
  // Edges 0 -> 3 and 1 -> 2: placing 0 frees 3 before placing 1 frees 2,
  // so with equal priorities 3 goes before the lower id 2. Unit tasks on
  // one processor each start after the last, so the processor's order is
  // the placement order.
  dag::Dag d;
  for (const char* kernel : {"a", "b", "c", "d"}) d.add_node(kernel, 1);
  d.add_edge(0, 3);
  d.add_edge(1, 2);
  const sim::System sys = test::generic_system(1);
  sim::MatrixCostModel cost({{1.0}, {1.0}, {1.0}, {1.0}});
  const auto plan = list_schedule(
      d, sys, cost, {0.0, 0.0, 0.0, 0.0},
      [](dag::NodeId, sim::ProcId, sim::TimeMs, sim::TimeMs eft) {
        return eft;
      });
  EXPECT_EQ(plan.per_proc_order(1)[0],
            (std::vector<dag::NodeId>{0, 1, 3, 2}));
}

TEST(StaticPolicyBase, ExposesPlanAfterPrepare) {
  const auto ex = test::topcuoglu_example();
  const sim::System sys = test::generic_system(3);
  Heft heft;
  heft.prepare(ex.dag, sys, *ex.cost);
  EXPECT_EQ(heft.plan().tasks.size(), ex.dag.node_count());
  EXPECT_NEAR(heft.plan().planned_makespan(), 80.0, 1e-9);
}

TEST(StaticPolicyBase, IsStatic) {
  Heft heft;
  EXPECT_FALSE(heft.is_dynamic());
  EXPECT_EQ(heft.transfer_semantics(), sim::TransferSemantics::Prefetched);
}

}  // namespace
}  // namespace apt::policies
