// The open-system sweep layer: plan validation, cell coordinates, shared
// row workloads, and bit-identity across worker counts.
#include <gtest/gtest.h>

#include "core/stream_plan.hpp"
#include "net/topology.hpp"

namespace apt {
namespace {

/// A small but non-trivial plan: 2 families × 2 rates × 2 policies with a
/// short admission horizon (paper kernels are hundreds of ms, so a few
/// dozen apps arrive per cell).
core::StreamPlan small_plan() {
  core::StreamPlan plan;
  plan.families = {"type1", "layered"};
  plan.rates_per_ms = {0.002, 0.01};
  plan.policy_specs = {"apt:4", "met"};
  plan.kernels = 20;
  plan.horizon_ms = 4000.0;
  plan.warmup_ms = 400.0;
  plan.base_seed = 42;
  return plan;
}

TEST(StreamPlan, ValidateRejectsBadAxes) {
  core::StreamPlan plan = small_plan();
  plan.families.clear();
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = small_plan();
  plan.rates_per_ms = {0.0};
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = small_plan();
  plan.families = {"no-such-family"};
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = small_plan();
  plan.policy_specs = {"heft"};  // static planner
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  plan = small_plan();
  plan.max_apps = 0;
  plan.horizon_ms = 0.0;  // unbounded
  EXPECT_THROW(plan.validate(), std::invalid_argument);

  EXPECT_EQ(small_plan().validate().size(), 2u);
}

TEST(StreamPlan, CellCoordinatesRoundTrip) {
  const core::StreamPlan plan = small_plan();
  ASSERT_EQ(plan.cell_count(), 8u);
  std::size_t flat = 0;
  for (std::size_t f = 0; f < 2; ++f) {
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t p = 0; p < 2; ++p, ++flat) {
        const core::StreamCellCoords c = core::stream_cell_coords(plan, flat);
        EXPECT_EQ(c.family, f);
        EXPECT_EQ(c.rate, r);
        EXPECT_EQ(c.policy, p);
        EXPECT_EQ(c.index, flat);
      }
    }
  }
  // Policy columns of one row share the workload seed; rows differ.
  const auto c0 = core::stream_cell_coords(plan, 0);
  const auto c1 = core::stream_cell_coords(plan, 1);
  const auto c2 = core::stream_cell_coords(plan, 2);
  EXPECT_EQ(c0.workload_seed, c1.workload_seed);
  EXPECT_NE(c0.workload_seed, c2.workload_seed);
  EXPECT_NE(c0.seed, c1.seed);
}

TEST(StreamPlan, PolicyColumnsFaceTheIdenticalWorkload) {
  const core::StreamPlan plan = small_plan();
  const core::BatchRunner runner(1);
  const core::StreamBatchResult result = core::run_stream_plan(plan, runner);
  for (std::size_t f = 0; f < plan.families.size(); ++f) {
    for (std::size_t r = 0; r < plan.rates_per_ms.size(); ++r) {
      const auto& apt = result.at(f, r, 0);
      const auto& met = result.at(f, r, 1);
      EXPECT_EQ(apt.metrics.apps_arrived, met.metrics.apps_arrived);
      EXPECT_EQ(apt.metrics.kernels_completed, met.metrics.kernels_completed);
    }
  }
}

TEST(StreamPlan, BitIdenticalAcrossJobCounts) {
  const core::StreamPlan plan = small_plan();
  const core::BatchRunner serial(1);
  const core::BatchRunner parallel(8);
  const core::StreamBatchResult a = core::run_stream_plan(plan, serial);
  const core::StreamBatchResult b = core::run_stream_plan(plan, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const sim::StreamMetrics& ma = a.cells[i].metrics;
    const sim::StreamMetrics& mb = b.cells[i].metrics;
    EXPECT_EQ(a.cells[i].policy_name, b.cells[i].policy_name);
    EXPECT_EQ(ma.apps_arrived, mb.apps_arrived);
    EXPECT_EQ(ma.apps_completed, mb.apps_completed);
    EXPECT_EQ(ma.apps_measured, mb.apps_measured);
    // Bitwise double equality — not NEAR: the cells must be identical.
    EXPECT_EQ(ma.end_ms, mb.end_ms) << i;
    EXPECT_EQ(ma.flow_ms.avg, mb.flow_ms.avg) << i;
    EXPECT_EQ(ma.flow_ms.p95, mb.flow_ms.p95) << i;
    EXPECT_EQ(ma.slowdown.avg, mb.slowdown.avg) << i;
    EXPECT_EQ(ma.throughput_apps_per_s, mb.throughput_apps_per_s) << i;
    EXPECT_EQ(ma.avg_utilization, mb.avg_utilization) << i;
    EXPECT_EQ(ma.queue_depth_avg, mb.queue_depth_avg) << i;
    EXPECT_EQ(ma.queue_depth_max, mb.queue_depth_max) << i;
    ASSERT_EQ(ma.per_proc.size(), mb.per_proc.size());
    for (std::size_t p = 0; p < ma.per_proc.size(); ++p) {
      EXPECT_EQ(ma.per_proc[p].compute_ms, mb.per_proc[p].compute_ms);
      EXPECT_EQ(ma.per_proc[p].kernel_count, mb.per_proc[p].kernel_count);
    }
  }
}

// The burst regime the perf work targets: 10x the densest sustained bench
// rate on a contended routed topology, so the incremental TM re-solve, the
// SoA slot slabs, and per-admission cost resolution into reused slot ranges
// are all live — and still bit-identical for any worker count.
TEST(StreamPlan, BitIdenticalAcrossJobCountsAtBurstRate) {
  core::StreamPlan plan;
  plan.families = {"type1"};
  plan.rates_per_ms = {0.005};
  plan.policy_specs = {"apt:4", "ag"};
  plan.kernels = 46;
  plan.max_apps = 25;  // burst cap bounds the run instead of a horizon
  plan.horizon_ms = 0.0;
  plan.warmup_ms = 0.0;
  plan.base_seed = 7;
  plan.base_system.topology = net::parse_topology_spec("mesh:2x2");
  plan.base_system.topology.bandwidth_gbps = 1.0;
  plan.base_system.topology.latency_ms = 0.05;

  const core::BatchRunner serial(1);
  const core::BatchRunner parallel(8);
  const core::StreamBatchResult a = core::run_stream_plan(plan, serial);
  const core::StreamBatchResult b = core::run_stream_plan(plan, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const sim::StreamMetrics& ma = a.cells[i].metrics;
    const sim::StreamMetrics& mb = b.cells[i].metrics;
    EXPECT_EQ(ma.apps_completed, mb.apps_completed);
    // Bitwise double equality — not NEAR: the cells must be identical.
    EXPECT_EQ(ma.end_ms, mb.end_ms) << i;
    EXPECT_EQ(ma.flow_ms.avg, mb.flow_ms.avg) << i;
    EXPECT_EQ(ma.flow_ms.max, mb.flow_ms.max) << i;
    EXPECT_EQ(ma.slowdown.avg, mb.slowdown.avg) << i;
    EXPECT_EQ(ma.avg_utilization, mb.avg_utilization) << i;
    ASSERT_EQ(ma.per_link.size(), mb.per_link.size());
    for (std::size_t l = 0; l < ma.per_link.size(); ++l) {
      EXPECT_EQ(ma.per_link[l].busy_ms, mb.per_link[l].busy_ms) << i;
      EXPECT_EQ(ma.per_link[l].bytes, mb.per_link[l].bytes) << i;
    }
    // Solver observability is deterministic too.
    EXPECT_EQ(ma.tm_solve_stats.full_solves,
              mb.tm_solve_stats.full_solves) << i;
    EXPECT_EQ(ma.tm_solve_stats.incremental_solves,
              mb.tm_solve_stats.incremental_solves) << i;
  }
}

// The comm-aware policy family queries the live TransferManager backlog at
// every decision — those reads must not leak any cross-cell state, so the
// grid stays bit-identical for any worker count.
TEST(StreamPlan, CommAwarePoliciesBitIdenticalAcrossJobCounts) {
  core::StreamPlan plan;
  plan.families = {"layered"};
  plan.rates_per_ms = {0.02};
  plan.policy_specs = {"ag-net", "apt-c:4", "apt-q:4"};
  plan.kernels = 24;
  plan.max_apps = 25;
  plan.horizon_ms = 0.0;
  plan.warmup_ms = 0.0;
  plan.base_seed = 7;
  plan.base_system = sim::SystemConfig::paper_default(1.0);
  plan.base_system.topology = net::parse_topology_spec("ring");
  plan.base_system.topology.latency_ms = 0.05;
  plan.noise.sigma = 0.25;  // so APT-Q's quantile path is genuinely live
  plan.noise.heavy_tail_prob = 0.05;
  plan.noise.seed = 3;

  const core::BatchRunner serial(1);
  const core::BatchRunner parallel(8);
  const core::StreamBatchResult a = core::run_stream_plan(plan, serial);
  const core::StreamBatchResult b = core::run_stream_plan(plan, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const sim::StreamMetrics& ma = a.cells[i].metrics;
    const sim::StreamMetrics& mb = b.cells[i].metrics;
    EXPECT_EQ(a.cells[i].policy_name, b.cells[i].policy_name);
    EXPECT_EQ(ma.apps_completed, mb.apps_completed);
    // Bitwise double equality — not NEAR: the cells must be identical.
    EXPECT_EQ(ma.end_ms, mb.end_ms) << i;
    EXPECT_EQ(ma.flow_ms.avg, mb.flow_ms.avg) << i;
    EXPECT_EQ(ma.flow_ms.max, mb.flow_ms.max) << i;
    EXPECT_EQ(ma.slowdown.avg, mb.slowdown.avg) << i;
    EXPECT_EQ(ma.avg_utilization, mb.avg_utilization) << i;
    ASSERT_EQ(ma.per_link.size(), mb.per_link.size());
    for (std::size_t l = 0; l < ma.per_link.size(); ++l) {
      EXPECT_EQ(ma.per_link[l].busy_ms, mb.per_link[l].busy_ms) << i;
      EXPECT_EQ(ma.per_link[l].bytes, mb.per_link[l].bytes) << i;
    }
  }
}

TEST(StreamPlan, SeededPolicySpecsResolvePerCell) {
  core::StreamPlan plan = small_plan();
  plan.policy_specs = {"random:{seed}", "met"};
  const std::vector<std::string> names = plan.validate();
  EXPECT_EQ(names[0], "Random");
  const core::BatchRunner runner(2);
  EXPECT_NO_THROW(core::run_stream_plan(plan, runner));
}

}  // namespace
}  // namespace apt
