// src/obs profiling: registry behaviour, scoped timers, inertness —
// attaching a Profile (or a TraceSink) to either engine leaves every
// simulated bit identical — the ready-set work gates, which bound an exact
// counter per commit, the gate that hedging adds one event per check and
// replica, and the gate that comm-blind AG reads no fabric backlog.
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include "core/batch.hpp"
#include "core/policy_factory.hpp"
#include "core/stream_plan.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "lut/synthetic.hpp"
#include "net/topology.hpp"
#include "obs/trace_sink.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "test_helpers.hpp"

namespace apt {
namespace {

TEST(Profile, CountersAccumulateAndSnapshotOmitsZeros) {
  obs::Profile p;
  p.add(obs::Counter::kArrivals);
  p.add(obs::Counter::kArrivals, 4);
  p.add(obs::Counter::kEventsProcessed, 7);
  EXPECT_EQ(p.count(obs::Counter::kArrivals), 5u);
  EXPECT_EQ(p.count(obs::Counter::kEventsProcessed), 7u);
  EXPECT_EQ(p.count(obs::Counter::kRetirements), 0u);

  const obs::ProfileSnapshot snap = p.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);  // zero entries omitted, enum order
  EXPECT_EQ(snap.counters[0].name, "events_processed");
  EXPECT_EQ(snap.counters[0].count, 7u);
  EXPECT_EQ(snap.counters[1].name, "arrivals");
  EXPECT_EQ(snap.counters[1].count, 5u);
  EXPECT_TRUE(snap.timers.empty());
}

TEST(Profile, TimersRecordCountTotalAndMax) {
  obs::Profile p;
  p.record(obs::Timer::kPolicyPass, 1.5);
  p.record(obs::Timer::kPolicyPass, 0.5);
  EXPECT_EQ(p.timer_count(obs::Timer::kPolicyPass), 2u);
  EXPECT_DOUBLE_EQ(p.timer_total_ms(obs::Timer::kPolicyPass), 2.0);
  EXPECT_DOUBLE_EQ(p.timer_max_ms(obs::Timer::kPolicyPass), 1.5);

  const obs::ProfileSnapshot snap = p.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  EXPECT_EQ(snap.timers[0].name, "policy_pass");
  EXPECT_EQ(snap.timers[0].count, 2u);
}

TEST(Profile, ScopedTimerNullProfileIsANoOp) {
  // Must not crash or read the clock; nothing to observe beyond surviving.
  obs::ScopedTimer timer(nullptr, obs::Timer::kPolicyPass);
}

TEST(Profile, ScopedTimerRecordsOneSample) {
  obs::Profile p;
  { obs::ScopedTimer timer(&p, obs::Timer::kDrainQueues); }
  EXPECT_EQ(p.timer_count(obs::Timer::kDrainQueues), 1u);
  EXPECT_GE(p.timer_total_ms(obs::Timer::kDrainQueues), 0.0);
}

TEST(Profile, EveryEnumHasAName) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Counter::kCount);
       ++i)
    EXPECT_STRNE(obs::to_string(static_cast<obs::Counter>(i)), "?");
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Timer::kCount);
       ++i)
    EXPECT_STRNE(obs::to_string(static_cast<obs::Timer>(i)), "?");
}

// --- closed-system engine ----------------------------------------------------

sim::SimResult run_closed(sim::EngineOptions options) {
  const lut::LookupTable table = lut::paper_lookup_table();
  const dag::Dag dag = dag::generate(dag::DfgType::Type1, 24, 3,
                                     dag::KernelPool::from_lookup_table(table));
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.topology = net::parse_topology_spec("mesh:2x2");
  const sim::System system(cfg);
  const sim::LutCostModel cost(table, system);
  const auto policy = core::make_policy("apt:4");
  sim::Engine engine(dag, system, cost, options);
  return engine.run(*policy);
}

void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  EXPECT_EQ(a.makespan, b.makespan);  // bitwise, not approximate
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].proc, b.schedule[i].proc);
    EXPECT_EQ(a.schedule[i].exec_start, b.schedule[i].exec_start);
    EXPECT_EQ(a.schedule[i].finish_time, b.schedule[i].finish_time);
    EXPECT_EQ(a.schedule[i].transfer_ms, b.schedule[i].transfer_ms);
    EXPECT_EQ(a.schedule[i].noise_mult, b.schedule[i].noise_mult);
  }
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].start, b.transfers[i].start);
    EXPECT_EQ(a.transfers[i].finish, b.transfers[i].finish);
  }
}

TEST(Profile, ClosedRunBitIdenticalWithObservabilityAttached) {
  const sim::SimResult bare = run_closed(sim::EngineOptions{});

  obs::Profile profile;
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.topology = net::parse_topology_spec("mesh:2x2");
  obs::ChromeTraceWriter writer{sim::System(cfg)};
  sim::EngineOptions options;
  options.profile = &profile;
  options.sink = &writer;
  const sim::SimResult observed = run_closed(options);

  expect_identical(bare, observed);
  EXPECT_GT(writer.event_count(), 0u);
  EXPECT_FALSE(profile.snapshot().empty());
}

TEST(Profile, ClosedRunCountersMatchTheSchedule) {
  obs::Profile profile;
  sim::EngineOptions options;
  options.profile = &profile;
  const sim::SimResult result = run_closed(options);

  // One decision and one completion event per kernel, at least one policy
  // pass, and a timed pass per policy invocation.
  EXPECT_EQ(profile.count(obs::Counter::kPolicyDecisions),
            result.schedule.size());
  EXPECT_EQ(profile.count(obs::Counter::kReadyMarked), result.schedule.size());
  EXPECT_GE(profile.count(obs::Counter::kEventsProcessed),
            result.schedule.size());
  EXPECT_GT(profile.count(obs::Counter::kTransfersStarted), 0u);
  EXPECT_EQ(profile.timer_count(obs::Timer::kPolicyPass),
            profile.count(obs::Counter::kPolicyPasses));
  // Contended topology: the TransferManager's solves were timed.
  EXPECT_GT(profile.timer_count(obs::Timer::kTmSolveFull), 0u);
}

// --- open-system sweep -------------------------------------------------------

core::StreamPlan profiled_plan() {
  core::StreamPlan plan;
  plan.families = {"type1"};
  plan.rates_per_ms = {0.004};
  plan.policy_specs = {"apt:4", "met"};
  plan.kernels = 20;
  plan.horizon_ms = 4000.0;
  plan.warmup_ms = 400.0;
  plan.base_seed = 42;
  plan.base_system.topology = net::parse_topology_spec("mesh:2x2");
  return plan;
}

TEST(Profile, StreamPlanBitIdenticalWithProfilingOn) {
  const core::BatchRunner runner(1);
  core::StreamPlan plan = profiled_plan();
  const core::StreamBatchResult bare = core::run_stream_plan(plan, runner);
  plan.profile = true;
  const core::StreamBatchResult profiled = core::run_stream_plan(plan, runner);

  ASSERT_EQ(bare.cells.size(), profiled.cells.size());
  for (std::size_t i = 0; i < bare.cells.size(); ++i) {
    const sim::StreamMetrics& a = bare.cells[i].metrics;
    const sim::StreamMetrics& b = profiled.cells[i].metrics;
    EXPECT_EQ(a.apps_arrived, b.apps_arrived);
    EXPECT_EQ(a.apps_completed, b.apps_completed);
    EXPECT_EQ(a.flow_ms.avg, b.flow_ms.avg);  // bitwise
    EXPECT_EQ(a.flow_ms.p99, b.flow_ms.p99);
    EXPECT_EQ(a.slowdown.avg, b.slowdown.avg);
    EXPECT_EQ(a.end_ms, b.end_ms);
    EXPECT_EQ(a.queue_depth_avg, b.queue_depth_avg);
    // The only permitted difference: the profile snapshot itself.
    EXPECT_TRUE(a.profile.empty());
    EXPECT_FALSE(b.profile.empty());
  }
}

TEST(Profile, StreamSnapshotLandsInEveryCellsMetrics) {
  const core::BatchRunner runner(2);
  core::StreamPlan plan = profiled_plan();
  plan.profile = true;
  const core::StreamBatchResult result = core::run_stream_plan(plan, runner);
  for (const core::StreamCellResult& cell : result.cells) {
    const obs::ProfileSnapshot& snap = cell.metrics.profile;
    ASSERT_FALSE(snap.empty());
    std::uint64_t arrivals = 0;
    std::uint64_t retirements = 0;
    for (const auto& c : snap.counters) {
      if (c.name == "arrivals") arrivals = c.count;
      if (c.name == "retirements") retirements = c.count;
    }
    EXPECT_EQ(arrivals, cell.metrics.apps_arrived);
    EXPECT_EQ(retirements, cell.metrics.apps_completed);
  }
}

// --- ready-set work gate -----------------------------------------------------

std::uint64_t counter(const obs::ProfileSnapshot& snap, const char* name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.count;
  return 0;
}

TEST(Profile, ReadySetWorkPerCommitIsFlatInTheBacklog) {
  // The type1 and layered bursts of `aptsim stream --family F --rate 0.005
  // --duration 0 --warmup 0 --max-apps N`: every app arrives long before
  // the first ones finish, so the ready set holds thousands of kernels at
  // N = 960. MET, APT and APT-C only read the new tail of the ready set, so
  // removal leaves tombstones and compaction is amortized over the commits
  // that left them: it moves fewer entries than there are commits. Shifting
  // the survivors on every commit instead moves O(ready) entries each.
  // The counts are exact, so the bound needs no timing or baseline.
  constexpr double kMaxMovedPerCommit = 2.0;
  for (const std::size_t max_apps : {120u, 960u}) {
    core::StreamPlan plan;
    plan.families = {"type1", "layered"};
    plan.rates_per_ms = {0.005};
    plan.policy_specs = {"met", "apt:4", "apt-c:4"};
    plan.max_apps = max_apps;
    plan.horizon_ms = 0.0;
    plan.warmup_ms = 0.0;
    plan.profile = true;
    const core::StreamBatchResult result =
        core::run_stream_plan(plan, core::BatchRunner(2));
    for (const core::StreamCellResult& cell : result.cells) {
      const obs::ProfileSnapshot& snap = cell.metrics.profile;
      const std::uint64_t commits = counter(snap, "policy_decisions");
      const std::uint64_t moved = counter(snap, "ready_entries_moved");
      ASSERT_EQ(commits, cell.metrics.kernels_completed) << cell.policy_spec;
      EXPECT_LT(static_cast<double>(moved),
                kMaxMovedPerCommit * static_cast<double>(commits))
          << cell.policy_spec << " on " << cell.family << " at max_apps "
          << max_apps << ": " << moved << " entries moved for " << commits
          << " commits";
    }
  }
}

TEST(Profile, HedgingAddsOneEventPerCheckAndReplica) {
  // A 120-app burst under heavy-tailed noise (sigma 0.25, 5% of kernels
  // inflated 20x). Every kernel completes once and every hedge check is
  // one event, so with hedging off the core pops one event per kernel. A
  // launched replica adds exactly one more: the race's losing completion,
  // which stays in the heap and is dropped when it pops. A check re-arms
  // only when the rolling threshold has grown past it, which is rare: at
  // most 5% more checks than kernels.
  for (const bool hedging : {false, true}) {
    core::StreamPlan plan;
    plan.families = {"type1", "layered"};
    plan.rates_per_ms = {0.005};
    plan.policy_specs = {"apt:4", "met", "spn", "ag"};
    plan.max_apps = 120;
    plan.horizon_ms = 0.0;
    plan.warmup_ms = 0.0;
    plan.base_seed = 2024;
    plan.noise.sigma = 0.25;
    plan.noise.heavy_tail_prob = 0.05;
    plan.noise.heavy_tail_multiplier = 20.0;
    plan.hedging.enabled = hedging;
    plan.profile = true;
    const core::StreamBatchResult result =
        core::run_stream_plan(plan, core::BatchRunner(2));
    ASSERT_EQ(result.cells.size(), 8u);
    for (const core::StreamCellResult& cell : result.cells) {
      const obs::ProfileSnapshot& snap = cell.metrics.profile;
      const std::uint64_t events = counter(snap, "events_processed");
      const std::uint64_t kernels = counter(snap, "ready_marked");
      const std::uint64_t checks = counter(snap, "hedge_checks");
      const std::uint64_t hedges = cell.metrics.hedges_launched;
      const std::string where = cell.policy_spec + " on " + cell.family;
      ASSERT_EQ(kernels, cell.metrics.kernels_completed) << where;
      if (!hedging) {
        EXPECT_EQ(events, kernels) << where;
        EXPECT_EQ(checks, 0u) << where;
        continue;
      }
      EXPECT_EQ(events, kernels + checks + hedges)
          << where << ": " << checks << " checks, " << hedges << " replicas";
      EXPECT_GE(checks, kernels) << where;
      EXPECT_LT(static_cast<double>(checks),
                1.05 * static_cast<double>(kernels))
          << where;
    }
  }
}

TEST(Profile, StaticExecutorReadySetWorkIsFlatPerCommit) {
  // HEFT and PEFT release each processor's next planned kernel once it is
  // ready. They learn new ready kernels through ready_from(), so a closed
  // run keeps its ready set in tombstone mode and compaction is amortized
  // over the commits. Reading the whole ready() on every pass switched the
  // set to in-place removal, which moved 9.9 entries per commit on the
  // paper's 46-kernel Type-1 graph and 43.1 on its 157-kernel one.
  constexpr double kMaxMovedPerCommit = 2.0;
  const lut::LookupTable table = lut::paper_lookup_table();
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(table, system);
  for (const char* spec : {"heft", "peft"}) {
    for (const auto type : {dag::DfgType::Type1, dag::DfgType::Type2}) {
      for (const std::size_t rung : {0u, 9u}) {
        const dag::Dag dag = dag::paper_graph(type, rung);
        obs::Profile profile;
        sim::EngineOptions options;
        options.profile = &profile;
        const auto policy = core::make_policy(spec);
        sim::Engine engine(dag, system, cost, options);
        engine.run(*policy);
        const std::uint64_t commits =
            profile.count(obs::Counter::kPolicyDecisions);
        const std::uint64_t moved =
            profile.count(obs::Counter::kReadyEntriesMoved);
        ASSERT_EQ(commits, dag.node_count()) << spec;
        EXPECT_LT(static_cast<double>(moved),
                  kMaxMovedPerCommit * static_cast<double>(commits))
            << spec << " on " << dag.node_count() << " kernels: " << moved
            << " entries moved for " << commits << " commits";
      }
    }
  }
}

// --- fabric backlog reads ----------------------------------------------------

TEST(Profile, CommBlindAgReadsNoFabricBacklog) {
  // perfbench's fabric-mesh shape: layered apps on twelve processors over a
  // 3x4 mesh of contended 1 GB/s links. AG ranks by the unloaded stall, so
  // its transfer row must not read a link drain; AG-net ranks by stall plus
  // backlog, so it must. Pricing AG through the scalar transfer_estimate
  // reads every route link of every predecessor for every processor.
  core::StreamPlan plan;
  plan.families = {"layered"};
  plan.rates_per_ms = {0.002};
  plan.policy_specs = {"ag", "ag-net"};
  plan.kernels = 24;
  plan.max_apps = 40;
  plan.horizon_ms = 0.0;
  plan.base_seed = 1;
  plan.profile = true;
  lut::SyntheticLutSpec spec;
  spec.ccr = 1.0;
  spec.link_rate_gbps = 1.0;
  spec.seed = 11;
  plan.table = lut::synthetic_lookup_table(spec);
  plan.base_system = sim::SystemConfig::paper_default(1.0);
  plan.base_system.processors.clear();
  for (const lut::ProcType type :
       {lut::ProcType::CPU, lut::ProcType::GPU, lut::ProcType::FPGA})
    plan.base_system.processors.insert(plan.base_system.processors.end(), 4,
                                       type);
  plan.base_system.topology = net::parse_topology_spec("mesh:3x4");
  plan.base_system.topology.bandwidth_gbps = 1.0;
  plan.base_system.topology.latency_ms = 0.05;
  const core::StreamBatchResult result =
      core::run_stream_plan(plan, core::BatchRunner(1));
  ASSERT_EQ(result.cells.size(), 2u);
  for (const core::StreamCellResult& cell : result.cells) {
    const obs::ProfileSnapshot& snap = cell.metrics.profile;
    ASSERT_EQ(cell.metrics.apps_completed, 40u) << cell.policy_spec;
    // The fabric carried traffic, so there was backlog to read.
    ASSERT_GT(counter(snap, "transfers_started"), 0u) << cell.policy_spec;
    const std::uint64_t reads = counter(snap, "tm_drain_reads");
    if (cell.policy_spec == "ag") {
      EXPECT_EQ(reads, 0u) << "comm-blind AG read the fabric backlog";
    } else {
      EXPECT_GT(reads, 0u) << cell.policy_spec;
    }
  }
}

}  // namespace
}  // namespace apt
