#include "sim/validate.hpp"

#include <gtest/gtest.h>

#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "policies/met.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"

namespace apt::sim {
namespace {

MatrixCostModel unit_cost(std::size_t nodes, std::size_t procs) {
  return MatrixCostModel(std::vector<std::vector<TimeMs>>(
      nodes, std::vector<TimeMs>(procs, 1.0)));
}

SimResult valid_two_kernel_result() {
  SimResult r;
  ScheduledKernel a;
  a.node = 0;
  a.proc = 0;
  a.exec_ms = 1.0;
  a.finish_time = 1.0;
  ScheduledKernel b;
  b.node = 1;
  b.proc = 0;
  b.ready_time = 1.0;
  b.assign_time = 1.0;
  b.exec_start = 1.0;
  b.exec_ms = 1.0;
  b.finish_time = 2.0;
  r.schedule = {a, b};
  r.makespan = 2.0;
  return r;
}

class ValidateFixture : public ::testing::Test {
 protected:
  ValidateFixture()
      : dag_(test::chain({{"a", 1}, {"b", 1}})),
        sys_(test::generic_system(1)),
        cost_(unit_cost(2, 1)) {}
  dag::Dag dag_;
  System sys_;
  MatrixCostModel cost_;
};

TEST_F(ValidateFixture, AcceptsAValidSchedule) {
  EXPECT_TRUE(
      validate_schedule(dag_, sys_, cost_, valid_two_kernel_result()).empty());
}

TEST_F(ValidateFixture, DetectsSizeMismatch) {
  SimResult r;
  EXPECT_FALSE(validate_schedule(dag_, sys_, cost_, r).empty());
}

TEST_F(ValidateFixture, DetectsInvalidProcessor) {
  auto r = valid_two_kernel_result();
  r.schedule[0].proc = 7;
  EXPECT_FALSE(validate_schedule(dag_, sys_, cost_, r).empty());
}

TEST_F(ValidateFixture, DetectsPrecedenceViolation) {
  auto r = valid_two_kernel_result();
  r.schedule[1].exec_start = 0.5;  // before predecessor finished
  r.schedule[1].finish_time = 1.5;
  EXPECT_FALSE(validate_schedule(dag_, sys_, cost_, r).empty());
}

TEST_F(ValidateFixture, DetectsWrongExecTime) {
  auto r = valid_two_kernel_result();
  r.schedule[0].exec_ms = 0.5;
  r.schedule[0].finish_time = 0.5;
  EXPECT_FALSE(validate_schedule(dag_, sys_, cost_, r).empty());
}

TEST_F(ValidateFixture, DetectsBrokenTimeline) {
  auto r = valid_two_kernel_result();
  r.schedule[1].assign_time = 0.5;  // assigned before ready (ready at 1.0)
  EXPECT_FALSE(validate_schedule(dag_, sys_, cost_, r).empty());
}

TEST_F(ValidateFixture, DetectsWrongMakespan) {
  auto r = valid_two_kernel_result();
  r.makespan = 99.0;
  EXPECT_FALSE(validate_schedule(dag_, sys_, cost_, r).empty());
}

TEST(Validate, DetectsProcessorOverlap) {
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(2, 1);
  SimResult r;
  for (dag::NodeId i = 0; i < 2; ++i) {
    ScheduledKernel k;
    k.node = i;
    k.proc = 0;
    k.exec_start = 0.0;  // both at once on one processor
    k.exec_ms = 1.0;
    k.finish_time = 1.0;
    r.schedule.push_back(k);
  }
  r.makespan = 1.0;
  EXPECT_FALSE(validate_schedule(d, sys, cost, r).empty());
}

TEST(CriticalPath, SingleChainIsSumOfBestTimes) {
  const dag::Dag d = test::chain({{"a", 1}, {"b", 1}, {"c", 1}});
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{2.0, 5.0}, {7.0, 3.0}, {4.0, 9.0}});
  EXPECT_DOUBLE_EQ(critical_path_lower_bound_ms(d, sys, cost), 9.0);
}

TEST(CriticalPath, ParallelBranchesTakeTheLongest) {
  const dag::Dag d = test::diamond({{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}});
  const System sys = test::generic_system(1);
  MatrixCostModel cost({{1.0}, {10.0}, {2.0}, {1.0}});
  EXPECT_DOUBLE_EQ(critical_path_lower_bound_ms(d, sys, cost), 12.0);
}

TEST(CriticalPath, EmptyDagIsZero) {
  dag::Dag d;
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(1, 1);  // unused: the DAG is empty
  EXPECT_DOUBLE_EQ(critical_path_lower_bound_ms(d, sys, cost), 0.0);
}

TEST(CriticalPath, LowerBoundsEveryRealSchedule) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 2);
  const System sys = test::paper_system();
  const LutCostModel cost(lut::paper_lookup_table(), sys);
  policies::Met met;
  Engine engine(graph, sys, cost);
  const auto result = engine.run(met);
  EXPECT_GE(result.makespan,
            critical_path_lower_bound_ms(graph, sys, cost) - 1e-9);
}

// --- validate_stream_schedule edge cases -------------------------------------

/// One-kernel application executing [start, start + exec) on `proc`.
struct OneKernelApp {
  dag::Dag dag;
  SimResult result;

  OneKernelApp(TimeMs arrival, ProcId proc, TimeMs start, TimeMs exec) {
    dag.add_node("k", 1);
    ScheduledKernel k;
    k.node = 0;
    k.proc = proc;
    k.ready_time = arrival;
    k.assign_time = start;
    k.exec_start = start;
    k.exec_ms = exec;
    k.finish_time = start + exec;
    result.schedule = {k};
    result.makespan = k.finish_time;
  }

  StreamAppView view(TimeMs arrival) const {
    return StreamAppView{&dag, arrival, &result};
  }
};

TEST(ValidateStream, AcceptsZeroDurationKernels) {
  // Three zero-duration kernels from three apps at the SAME instant on the
  // same processor: all occupation intervals are empty, nothing overlaps.
  const System sys = test::generic_system(1);
  const OneKernelApp a(0.0, 0, 5.0, 0.0);
  const OneKernelApp b(0.0, 0, 5.0, 0.0);
  const OneKernelApp c(0.0, 0, 5.0, 0.0);
  const auto violations = validate_stream_schedule(
      sys, {a.view(0.0), b.view(0.0), c.view(0.0)});
  for (const auto& v : violations) ADD_FAILURE() << v.message;
}

TEST(ValidateStream, AcceptsZeroDurationKernelInsideABusyStretch) {
  // A zero-duration kernel exactly at another app's finish boundary.
  const System sys = test::generic_system(1);
  const OneKernelApp busy(0.0, 0, 0.0, 7.0);
  const OneKernelApp instant(0.0, 0, 7.0, 0.0);
  const OneKernelApp next(0.0, 0, 7.0, 3.0);
  const auto violations = validate_stream_schedule(
      sys, {busy.view(0.0), instant.view(0.0), next.view(0.0)});
  for (const auto& v : violations) ADD_FAILURE() << v.message;
}

TEST(ValidateStream, AcceptsBackToBackReuseAtIdenticalTimestamps) {
  // App B picks the processor up at the exact instant app A releases it —
  // the [from, to) convention makes the shared timestamp legal.
  const System sys = test::generic_system(1);
  const OneKernelApp a(0.0, 0, 0.0, 5.0);
  const OneKernelApp b(0.0, 0, 5.0, 5.0);
  const OneKernelApp c(0.0, 0, 10.0, 5.0);
  const auto violations =
      validate_stream_schedule(sys, {a.view(0.0), b.view(0.0), c.view(0.0)});
  for (const auto& v : violations) ADD_FAILURE() << v.message;
}

TEST(ValidateStream, RejectsCrossInstanceOverlap) {
  // App B starts 1 ms before app A finishes on the same processor — the
  // invariant only a pooled, cross-instance check can see.
  const System sys = test::generic_system(1);
  const OneKernelApp a(0.0, 0, 0.0, 5.0);
  const OneKernelApp b(0.0, 0, 4.0, 5.0);
  const auto violations =
      validate_stream_schedule(sys, {a.view(0.0), b.view(0.0)});
  ASSERT_FALSE(violations.empty());
  bool mentions_overlap = false;
  for (const auto& v : violations)
    mentions_overlap =
        mentions_overlap || v.message.find("overlap") != std::string::npos;
  EXPECT_TRUE(mentions_overlap);
}

TEST(ValidateStream, RejectsReadinessBeforeArrival) {
  // The kernel claims readiness at 0 but its application arrived at 10.
  const System sys = test::generic_system(1);
  const OneKernelApp a(0.0, 0, 0.0, 1.0);
  const auto violations = validate_stream_schedule(sys, {a.view(10.0)});
  ASSERT_FALSE(violations.empty());

  // A well-timed kernel whose recorded noise multiplier is not positive:
  // the per-app checks are validate_schedule's, noise_mult > 0 included.
  OneKernelApp b(0.0, 0, 0.0, 1.0);
  b.result.schedule[0].noise_mult = 0.0;
  EXPECT_FALSE(validate_stream_schedule(sys, {b.view(0.0)}).empty());
}

}  // namespace
}  // namespace apt::sim
