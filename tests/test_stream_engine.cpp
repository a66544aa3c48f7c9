// The open-system stream engine: arrival processes, multi-instance
// scheduling, retirement, open-system metrics, and the cross-instance
// validation invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "reference_closed_engine.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/validate.hpp"
#include "stream/stream_engine.hpp"
#include "test_helpers.hpp"

namespace apt {
namespace {

/// A source of identical single-kernel applications.
stream::DagSource single_kernel_source() {
  return [](std::size_t) {
    dag::Dag d;
    d.add_node("k", 1);
    return d;
  };
}

/// Unit-cost matrix model for `procs` processors at `t` ms per kernel.
sim::MatrixCostModel unit_cost(std::size_t procs, double t) {
  return sim::MatrixCostModel(
      {std::vector<sim::TimeMs>(procs, t)});
}

// --- Arrival processes --------------------------------------------------------

TEST(Arrivals, PoissonMatchesApplyPoissonArrivalsSeedContract) {
  // The documented contract: ArrivalProcess(poisson, rate, seed) yields the
  // exact release sequence apply_poisson_arrivals(mean = 1/rate, seed)
  // stamps onto entry kernels.
  dag::Dag d;
  for (int i = 0; i < 50; ++i) d.add_node("k", 1);
  dag::apply_poisson_arrivals(d, 100.0, 0xFEED);

  stream::ArrivalProcess process(
      stream::ArrivalSpec::poisson(1.0 / 100.0, 0xFEED));
  for (dag::NodeId n = 0; n < d.node_count(); ++n) {
    const auto t = process.next();
    ASSERT_TRUE(t.has_value());
    EXPECT_DOUBLE_EQ(*t, d.node(n).release_ms) << n;
  }
}

TEST(Arrivals, PoissonIsStrictlyIncreasing) {
  stream::ArrivalProcess process(stream::ArrivalSpec::poisson(0.5, 7));
  double prev = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const auto t = process.next();
    ASSERT_TRUE(t.has_value());
    EXPECT_GT(*t, prev);
    prev = *t;
  }
}

TEST(Arrivals, DeterministicGapsAreExact) {
  stream::ArrivalProcess process(stream::ArrivalSpec::deterministic(0.25));
  EXPECT_DOUBLE_EQ(*process.next(), 4.0);
  EXPECT_DOUBLE_EQ(*process.next(), 8.0);
  EXPECT_DOUBLE_EQ(*process.next(), 12.0);
}

TEST(Arrivals, TraceReplaysAndExhausts) {
  stream::ArrivalProcess process(
      stream::ArrivalSpec::trace({0.0, 1.5, 1.5, 9.0}));
  EXPECT_DOUBLE_EQ(*process.next(), 0.0);
  EXPECT_DOUBLE_EQ(*process.next(), 1.5);
  EXPECT_DOUBLE_EQ(*process.next(), 1.5);
  EXPECT_DOUBLE_EQ(*process.next(), 9.0);
  EXPECT_FALSE(process.next().has_value());
}

TEST(Arrivals, SpecValidation) {
  EXPECT_THROW(stream::ArrivalSpec::poisson(0.0, 1), std::invalid_argument);
  EXPECT_THROW(stream::ArrivalSpec::deterministic(-1.0),
               std::invalid_argument);
  EXPECT_THROW(stream::ArrivalSpec::trace({3.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(stream::parse_arrival_kind("fancy"), std::invalid_argument);
  EXPECT_EQ(stream::parse_arrival_kind("Poisson"),
            stream::ArrivalKind::Poisson);
  EXPECT_EQ(stream::parse_arrival_kind("deterministic"),
            stream::ArrivalKind::Deterministic);
}

TEST(Arrivals, EveryKindRoundTripsThroughItsName) {
  // parse(to_string(k)) == k — including "trace", which the parser used to
  // reject even though to_string produced it.
  for (stream::ArrivalKind kind :
       {stream::ArrivalKind::Poisson, stream::ArrivalKind::Deterministic,
        stream::ArrivalKind::Trace}) {
    EXPECT_EQ(stream::parse_arrival_kind(stream::to_string(kind)), kind)
        << stream::to_string(kind);
  }
}

TEST(Arrivals, DeterministicClockIsExactOverLongHorizons) {
  // Arrival k must be exactly k/rate: the old `clock_ += 1/rate`
  // accumulator drifted by rounding over ~10^6 arrivals, breaking
  // bit-identity between runs replaying different prefixes of the stream.
  const double rate = 0.3;  // 1/0.3 is not exactly representable
  stream::ArrivalProcess process(stream::ArrivalSpec::deterministic(rate));
  constexpr std::uint64_t kArrivals = 1000000;
  double last = 0.0;
  for (std::uint64_t k = 1; k <= kArrivals; ++k) {
    const auto t = process.next();
    ASSERT_TRUE(t.has_value());
    if (k == kArrivals || k == 1 || k == 999) last = *t;
    if (k == 1) {
      EXPECT_EQ(*t, 1.0 / rate);
    }
    if (k == 999) {
      EXPECT_EQ(*t, 999.0 / rate);
    }
  }
  EXPECT_EQ(last, static_cast<double>(kArrivals) / rate);  // bitwise
}

TEST(StreamOptions, RequiresABoundedRun) {
  stream::StreamOptions opts;  // poisson, no cap, no horizon
  EXPECT_THROW(opts.validate(), std::invalid_argument);
  opts.max_apps = 10;
  EXPECT_NO_THROW(opts.validate());
  opts.max_apps = 0;
  opts.horizon_ms = 100.0;
  EXPECT_NO_THROW(opts.validate());
  opts.arrivals = stream::ArrivalSpec::trace({1.0});
  opts.horizon_ms = 0.0;
  EXPECT_NO_THROW(opts.validate());  // traces are finite by construction
}

// --- Single-arrival equivalence with the closed-system engine ----------------

/// Runs `graph` through the frozen closed engine (test::ReferenceClosedEngine,
/// the closed engine as it ran before it shared the stream's event core)
/// and as a single-arrival stream under each policy spec, and asserts the
/// two agree bit for bit: processors, exec starts, finishes, transfer
/// stalls and messages, makespan, and the stream's slowdown against the
/// isolated lower bound. The recorded instance must be the source's graph
/// itself.
void expect_single_arrival_matches_engine(
    const sim::System& system, const sim::CostModel& cost,
    const dag::Dag& graph, const std::vector<std::string>& specs) {
  for (const std::string& spec : specs) {
    const auto batch_policy = core::make_policy(spec);
    test::ReferenceClosedEngine engine(graph, system, cost);
    const sim::SimResult batch = engine.run(*batch_policy);

    stream::StreamOptions opts;
    opts.arrivals = stream::ArrivalSpec::trace({0.0});
    opts.record_schedules = true;
    stream::StreamEngine stream_engine(
        system, cost, [&](std::size_t) { return graph; }, opts);
    const auto stream_policy = core::make_policy(spec);
    const stream::StreamOutcome outcome = stream_engine.run(*stream_policy);

    ASSERT_EQ(outcome.schedules.size(), 1u) << spec;
    EXPECT_TRUE(dag::identical(outcome.schedules[0].dag, graph)) << spec;
    const sim::SimResult& streamed = outcome.schedules[0].result;
    ASSERT_EQ(streamed.schedule.size(), batch.schedule.size()) << spec;
    EXPECT_EQ(streamed.makespan, batch.makespan) << spec;  // bitwise
    for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
      const sim::ScheduledKernel& a = batch.schedule[n];
      const sim::ScheduledKernel& b = streamed.schedule[n];
      EXPECT_EQ(a.proc, b.proc) << spec << " node " << n;
      EXPECT_EQ(a.exec_start, b.exec_start) << spec << " node " << n;
      EXPECT_EQ(a.finish_time, b.finish_time) << spec << " node " << n;
      EXPECT_EQ(a.transfer_ms, b.transfer_ms) << spec << " node " << n;
      EXPECT_EQ(a.alternative, b.alternative) << spec << " node " << n;
    }
    ASSERT_EQ(streamed.transfers.size(), batch.transfers.size()) << spec;
    for (std::size_t i = 0; i < batch.transfers.size(); ++i) {
      EXPECT_EQ(streamed.transfers[i].start, batch.transfers[i].start)
          << spec << " transfer " << i;
      EXPECT_EQ(streamed.transfers[i].finish, batch.transfers[i].finish)
          << spec << " transfer " << i;
      EXPECT_EQ(streamed.transfers[i].path, batch.transfers[i].path)
          << spec << " transfer " << i;
    }
    EXPECT_EQ(outcome.metrics.apps_completed, 1u) << spec;
    EXPECT_EQ(outcome.metrics.flow_ms.avg, batch.makespan) << spec;
    EXPECT_EQ(outcome.metrics.slowdown.avg,
              batch.makespan /
                  sim::makespan_lower_bound_ms(graph, system, cost))
        << spec;
  }
}

TEST(StreamEngine, SingleArrivalReproducesEngineExactly) {
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);
  // AG exercises the enqueue path; APT and MET the assign path.
  expect_single_arrival_matches_engine(system, cost, graph,
                                       {"apt:4", "met", "spn", "ag"});
}

// The 12-processor fabric platform: wider exec rows and min-exec slabs than
// any other stream test, per-edge transfer tables on the ideal fabric, and
// routed contended messages on the mesh.
TEST(StreamEngine, SingleArrivalReproducesEngineOnTheTwelveProcessorFabric) {
  const lut::LookupTable table = test::fabric_table();
  const dag::Dag graph = scenario::generate(
      "layered", 46, 11, dag::KernelPool::from_lookup_table(table));
  for (const std::string topology : {"ideal", "mesh:3x4"}) {
    SCOPED_TRACE(topology);
    const sim::System system = test::fabric_system(topology);
    const sim::LutCostModel cost(table, system);
    expect_single_arrival_matches_engine(system, cost, graph,
                                         {"ag", "ag-net", "met", "apt:4"});
  }
}

TEST(StreamEngine, LateSingleArrivalShiftsTheScheduleRigidly) {
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 1);

  const auto batch_policy = core::make_policy("apt:4");
  sim::Engine engine(graph, system, cost);
  const sim::SimResult batch = engine.run(*batch_policy);

  const double t0 = 1234.5;
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace({t0});
  opts.record_schedules = true;
  stream::StreamEngine stream_engine(
      system, cost, [&](std::size_t) { return graph; }, opts);
  const auto stream_policy = core::make_policy("apt:4");
  const stream::StreamOutcome outcome = stream_engine.run(*stream_policy);

  // Costs are time-invariant, so the whole schedule shifts by the arrival.
  ASSERT_EQ(outcome.schedules.size(), 1u);
  EXPECT_DOUBLE_EQ(outcome.metrics.flow_ms.avg, batch.makespan);
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    EXPECT_NEAR(outcome.schedules[0].result.schedule[n].exec_start,
                batch.schedule[n].exec_start + t0, 1e-6);
  }
}

// --- Multi-instance behaviour -------------------------------------------------

TEST(StreamEngine, OverlappingInstancesShareTheProcessorExclusively) {
  const sim::System system = test::generic_system(1);
  const auto cost = unit_cost(1, 2.0);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace({0.0, 1.0});
  opts.record_schedules = true;
  stream::StreamEngine engine(system, cost, single_kernel_source(), opts);
  const auto policy = core::make_policy("met");
  const stream::StreamOutcome outcome = engine.run(*policy);

  ASSERT_EQ(outcome.schedules.size(), 2u);
  std::vector<sim::StreamAppView> views;
  for (const auto& app : outcome.schedules)
    views.push_back({&app.dag, app.arrival_ms, &app.result});
  const auto violations = sim::validate_stream_schedule(system, views);
  for (const auto& v : violations) ADD_FAILURE() << v.message;

  // App 0 occupies [0, 2); app 1 (ready at 1) must wait until 2.
  EXPECT_DOUBLE_EQ(outcome.schedules[0].result.schedule[0].exec_start, 0.0);
  EXPECT_DOUBLE_EQ(outcome.schedules[0].result.schedule[0].finish_time, 2.0);
  EXPECT_DOUBLE_EQ(outcome.schedules[1].result.schedule[0].exec_start, 2.0);
  EXPECT_DOUBLE_EQ(outcome.schedules[1].result.schedule[0].finish_time, 4.0);
  EXPECT_DOUBLE_EQ(outcome.metrics.flow_ms.max, 3.0);  // app 1: 4 - 1
}

TEST(StreamEngine, ValidateStreamRejectsCrossInstanceOverlap) {
  const sim::System system = test::generic_system(1);
  // Two fake one-kernel apps occupying the same processor at once.
  dag::Dag d1, d2;
  d1.add_node("a", 1);
  d2.add_node("b", 1);
  auto mk = [](double start, double len) {
    sim::SimResult r;
    sim::ScheduledKernel k;
    k.node = 0;
    k.proc = 0;
    k.ready_time = start;
    k.assign_time = start;
    k.exec_start = start;
    k.exec_ms = len;
    k.finish_time = start + len;
    r.schedule = {k};
    r.makespan = k.finish_time;
    return r;
  };
  const sim::SimResult r1 = mk(0.0, 5.0);
  const sim::SimResult r2 = mk(3.0, 5.0);  // overlaps r1 on proc 0
  const std::vector<sim::StreamAppView> views = {{&d1, 0.0, &r1},
                                                 {&d2, 3.0, &r2}};
  const auto violations = sim::validate_stream_schedule(system, views);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].message.find("overlaps"), std::string::npos);

  // The same apps back to back are clean.
  const sim::SimResult r3 = mk(5.0, 5.0);
  const std::vector<sim::StreamAppView> ok = {{&d1, 0.0, &r1},
                                              {&d2, 3.0, &r3}};
  EXPECT_TRUE(sim::validate_stream_schedule(system, ok).empty());
}

TEST(StreamEngine, MD1SanityBoundAtLowLoad) {
  // M/D/1 with deterministic service S = 2 ms and λ = 0.0005 apps/ms:
  // ρ = λS = 0.001, so the mean queueing wait ρS / 2(1-ρ) ≈ 0.001 ms. The
  // measured mean flow must sit between S (the floor) and S plus a few
  // times the closed-form wait; utilization must track ρ.
  const sim::System system = test::generic_system(1);
  const auto cost = unit_cost(1, 2.0);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::poisson(0.0005, 11);
  opts.max_apps = 500;
  stream::StreamEngine engine(system, cost, single_kernel_source(), opts);
  const auto policy = core::make_policy("met");
  const stream::StreamOutcome outcome = engine.run(*policy);
  const sim::StreamMetrics& m = outcome.metrics;

  ASSERT_EQ(m.apps_completed, 500u);
  const double service = 2.0;
  const double rho = 0.0005 * service;
  const double md1_wait = rho * service / (2.0 * (1.0 - rho));
  EXPECT_GE(m.flow_ms.avg, service);
  EXPECT_LE(m.flow_ms.avg, service + 10.0 * md1_wait + 1e-9);
  EXPECT_NEAR(m.avg_utilization, rho, rho);  // within 2x
  // Throughput ≈ λ (in apps/s) when the system is stable.
  EXPECT_NEAR(m.throughput_apps_per_s, 0.0005 * 1000.0, 0.20);
  EXPECT_LE(m.queue_depth_max, 2u);
}

TEST(StreamEngine, SaturatedStreamBuildsBacklogAndSlowdown) {
  // λ = 2 apps/ms against S = 2 ms on one processor: ρ = 4, the backlog
  // must grow roughly linearly and slowdowns blow up.
  const sim::System system = test::generic_system(1);
  const auto cost = unit_cost(1, 2.0);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::poisson(2.0, 3);
  opts.max_apps = 200;
  stream::StreamEngine engine(system, cost, single_kernel_source(), opts);
  const auto policy = core::make_policy("met");
  const stream::StreamOutcome outcome = engine.run(*policy);
  const sim::StreamMetrics& m = outcome.metrics;

  EXPECT_EQ(m.apps_completed, 200u);
  EXPECT_GT(m.live_apps_max, 100u);
  EXPECT_GT(m.slowdown.avg, 10.0);
  // The drain is service-bound: end ≈ 200 × 2 ms.
  EXPECT_NEAR(m.end_ms, 400.0, 40.0);
}

TEST(StreamEngine, RetirementKeepsLiveSetSmallOverLongRuns) {
  // 5000 sequential apps with gaps far beyond service: at most one app is
  // ever live, demonstrating instance retirement (the run would otherwise
  // accumulate 5000 instances).
  const sim::System system = test::generic_system(1);
  const auto cost = unit_cost(1, 2.0);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::deterministic(0.1);  // gap 10 ms
  opts.max_apps = 5000;
  stream::StreamEngine engine(system, cost, single_kernel_source(), opts);
  const auto policy = core::make_policy("met");
  const stream::StreamOutcome outcome = engine.run(*policy);
  EXPECT_EQ(outcome.metrics.apps_completed, 5000u);
  EXPECT_EQ(outcome.metrics.live_apps_max, 1u);
  EXPECT_TRUE(outcome.schedules.empty());  // not recorded by default
}

TEST(StreamEngine, LiveAppGuardTripsUnderOverload) {
  const sim::System system = test::generic_system(1);
  const auto cost = unit_cost(1, 1000.0);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::deterministic(1.0);
  opts.max_apps = 100;
  opts.max_live_apps = 10;
  stream::StreamEngine engine(system, cost, single_kernel_source(), opts);
  const auto policy = core::make_policy("met");
  EXPECT_THROW(engine.run(*policy), std::runtime_error);
}

TEST(StreamEngine, RejectsStaticPolicies) {
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace({0.0});
  stream::StreamEngine engine(
      system, cost,
      [](std::size_t) { return dag::paper_graph(dag::DfgType::Type1, 0); },
      opts);
  for (const char* spec : {"heft", "peft"}) {
    const auto policy = core::make_policy(spec);
    EXPECT_THROW(engine.run(*policy), std::invalid_argument) << spec;
  }
}

TEST(StreamEngine, ZeroKernelApplicationsRetireInstantly) {
  const sim::System system = test::generic_system(1);
  const auto cost = unit_cost(1, 2.0);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace({1.0, 2.0});
  stream::StreamEngine engine(
      system, cost, [](std::size_t) { return dag::Dag(); }, opts);
  const auto policy = core::make_policy("met");
  const stream::StreamOutcome outcome = engine.run(*policy);
  EXPECT_EQ(outcome.metrics.apps_completed, 2u);
  EXPECT_EQ(outcome.metrics.kernels_completed, 0u);
  EXPECT_DOUBLE_EQ(outcome.metrics.flow_ms.avg, 0.0);
}

TEST(StreamEngine, WarmupTruncationExcludesEarlyApps) {
  const sim::System system = test::generic_system(1);
  const auto cost = unit_cost(1, 2.0);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace({0.0, 10.0, 20.0, 30.0});
  opts.warmup_ms = 15.0;
  stream::StreamOptions no_warmup = opts;
  no_warmup.warmup_ms = 0.0;

  const auto run_with = [&](const stream::StreamOptions& o) {
    stream::StreamEngine engine(system, cost, single_kernel_source(), o);
    const auto policy = core::make_policy("met");
    return engine.run(*policy).metrics;
  };
  const sim::StreamMetrics truncated = run_with(opts);
  const sim::StreamMetrics full = run_with(no_warmup);
  EXPECT_EQ(truncated.apps_completed, 4u);
  EXPECT_EQ(truncated.apps_measured, 2u);  // arrivals at 20 and 30
  EXPECT_EQ(full.apps_measured, 4u);
}

// --- Ready-set bookkeeping ----------------------------------------------------

TEST(StreamEngine, ReadySetSurvivesOutOfOrderAssignment) {
  // sim::Engine's hole-punching test on global slots: holes at the back,
  // front, and middle of the first instance's ready set. A second instance
  // arrives after the first retired, reuses its slot range, and is punched
  // in a different order. The FIFO view the policy sees next must be
  // exactly the un-assigned survivors in arrival order.
  class HolePuncher : public sim::Policy {
   public:
    std::string name() const override { return "hole-puncher"; }
    bool is_dynamic() const override { return true; }
    void on_event(sim::SchedulerContext& ctx) override {
      const std::vector<dag::NodeId> all = {0, 1, 2, 3, 4, 5};
      if (punched == 0 && ctx.now() == 0.0) {
        EXPECT_EQ(ctx.ready(), all);
        ctx.assign(5, 0);  // hole at the back
        EXPECT_EQ(ctx.ready(), (std::vector<dag::NodeId>{0, 1, 2, 3, 4}));
        ctx.assign(0, 1);  // hole at the front
        ctx.assign(2, 2);  // hole in the middle
        EXPECT_EQ(ctx.ready(), (std::vector<dag::NodeId>{1, 3, 4}));
        ++punched;
        return;
      }
      if (punched == 1 && ctx.now() == 100.0) {
        EXPECT_EQ(ctx.ready(), all);  // the retired slots, reused
        ctx.assign(3, 0);  // middle first
        ctx.assign(0, 1);  // then the front
        ctx.assign(5, 2);  // then the back
        EXPECT_EQ(ctx.ready(), (std::vector<dag::NodeId>{1, 2, 4}));
        ++punched;
        return;
      }
      // Other passes: drain whatever is left FIFO onto idle processors.
      while (!ctx.ready().empty() && !ctx.idle_processors().empty()) {
        const dag::NodeId n = ctx.ready().front();
        ctx.assign(n, ctx.idle_processors().front());
      }
    }
    int punched = 0;
  };
  const sim::System system = test::generic_system(3);
  const sim::MatrixCostModel cost(std::vector<std::vector<sim::TimeMs>>(
      6, std::vector<sim::TimeMs>(3, 2.0)));
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace({0.0, 100.0});
  opts.record_schedules = true;
  stream::StreamEngine engine(
      system, cost,
      [](std::size_t) {
        dag::Dag d;
        for (int i = 0; i < 6; ++i) d.add_node("k", 1);
        return d;
      },
      opts);
  HolePuncher policy;
  const stream::StreamOutcome outcome = engine.run(policy);
  EXPECT_EQ(policy.punched, 2);
  ASSERT_EQ(outcome.schedules.size(), 2u);
  // 6 kernels, 3 procs, 2 ms each: two waves per instance.
  EXPECT_DOUBLE_EQ(outcome.schedules[0].result.makespan, 4.0);
  EXPECT_DOUBLE_EQ(outcome.schedules[1].result.makespan, 104.0);
}

TEST(StreamEngine, AgStyleDrainKeepsTheReadySetFifo) {
  // Overlapping instances: every pass commits the whole ready set, holes
  // everywhere, and ready() must track the survivors exactly.
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::poisson(0.01, 5);
  opts.max_apps = 12;
  opts.record_schedules = true;
  stream::StreamEngine engine(
      system, cost,
      [](std::size_t k) {
        return dag::paper_graph(
            k % 2 == 0 ? dag::DfgType::Type1 : dag::DfgType::Type2, k % 10);
      },
      opts);
  test::DrainingReadyAuditor policy;
  const stream::StreamOutcome outcome = engine.run(policy);
  EXPECT_EQ(outcome.metrics.apps_completed, 12u);
  EXPECT_EQ(policy.commits, outcome.metrics.kernels_completed);
  EXPECT_EQ(policy.violations, 0u);
  std::vector<sim::StreamAppView> views;
  for (const auto& app : outcome.schedules)
    views.push_back({&app.dag, app.arrival_ms, &app.result});
  for (const auto& v : sim::validate_stream_schedule(system, views))
    ADD_FAILURE() << v.message;
}

// --- LevelTrace ---------------------------------------------------------------

TEST(LevelTrace, TimeWeightedAverageAndMax) {
  sim::LevelTrace trace;
  trace.set_window_start(0.0);
  trace.observe(0.0, 1);   // level 1 over [0, 4)
  trace.observe(4.0, 3);   // level 3 over [4, 6)
  trace.observe(6.0, 0);   // level 0 over [6, 10)
  trace.finish(10.0);
  EXPECT_DOUBLE_EQ(trace.time_weighted_avg(), (4.0 * 1 + 2.0 * 3) / 10.0);
  EXPECT_EQ(trace.max_level(), 3u);
}

TEST(LevelTrace, WindowClippingIgnoresWarmup) {
  sim::LevelTrace trace;
  trace.set_window_start(5.0);
  trace.observe(0.0, 10);  // entirely before the window start
  trace.observe(5.0, 2);   // level 2 over [5, 10)
  trace.finish(10.0);
  EXPECT_DOUBLE_EQ(trace.time_weighted_avg(), 2.0);
  EXPECT_EQ(trace.max_level(), 2u);
}

TEST(LevelTrace, ZeroDurationSpikesRegisterInMax) {
  sim::LevelTrace trace;
  trace.set_window_start(0.0);
  trace.observe(5.0, 10);  // attained and cleared at the same instant
  trace.observe(5.0, 0);
  trace.finish(10.0);
  EXPECT_EQ(trace.max_level(), 10u);
  EXPECT_DOUBLE_EQ(trace.time_weighted_avg(), 0.0);  // never persisted

  sim::LevelTrace warm;
  warm.set_window_start(6.0);
  warm.observe(5.0, 10);  // spike before the window: invisible
  warm.observe(5.0, 0);
  warm.finish(10.0);
  EXPECT_EQ(warm.max_level(), 0u);
}

TEST(LevelTrace, FinishDoesNotLeakPreWindowLevelsIntoTheWindowedMax) {
  // Regression: finish() used to stamp max_level_ unconditionally, so a
  // level last attained BEFORE the observation window opened leaked into
  // the windowed maximum whenever the trace ended at the boundary.
  sim::LevelTrace trace;
  trace.set_window_start(100.0);
  trace.observe(10.0, 7);  // entirely pre-window
  trace.finish(100.0);     // zero-length window
  EXPECT_EQ(trace.max_level(), 0u);
  EXPECT_DOUBLE_EQ(trace.time_weighted_avg(), 0.0);

  // The level genuinely persisting into the window still registers.
  sim::LevelTrace held;
  held.set_window_start(100.0);
  held.observe(10.0, 7);  // level 7 over [10, 150) — overlaps [100, 150)
  held.finish(150.0);
  EXPECT_EQ(held.max_level(), 7u);
  EXPECT_DOUBLE_EQ(held.time_weighted_avg(), 7.0);
}

TEST(LevelTrace, SampleBufferStaysBounded) {
  sim::LevelTrace trace(64);
  trace.set_window_start(0.0);
  for (int i = 0; i < 100000; ++i)
    trace.observe(static_cast<double>(i), static_cast<std::size_t>(i % 7));
  trace.finish(100000.0);
  EXPECT_LE(trace.samples().size(), 64u);
  EXPECT_GE(trace.samples().size(), 16u);
}

}  // namespace
}  // namespace apt
