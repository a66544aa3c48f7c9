// Stochastic service times (sim::NoiseSpec) and tail-tolerant straggler
// hedging (sim::HedgeSpec): the seed contract, the noise-off bit-identity
// guarantee, validator enforcement of the one-winner invariant, and the
// p99 ablation the feature exists for.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/batch.hpp"
#include "core/policy_factory.hpp"
#include "core/stream_plan.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "sim/noise.hpp"
#include "sim/validate.hpp"
#include "stream/stream_engine.hpp"
#include "test_helpers.hpp"

namespace apt {
namespace {

// --- NoiseSpec ---------------------------------------------------------------

TEST(NoiseSpec, DisabledByDefaultAndValidates) {
  sim::NoiseSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_NO_THROW(spec.validate());
  spec.sigma = 0.2;
  EXPECT_TRUE(spec.enabled());
  spec.sigma = 0.0;
  spec.heavy_tail_prob = 0.1;
  EXPECT_TRUE(spec.enabled());
  // A unit multiplier makes the tail event a no-op.
  spec.heavy_tail_multiplier = 1.0;
  EXPECT_FALSE(spec.enabled());
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInfinity = std::numeric_limits<double>::infinity();

// NaN passes every `x < bound` test, so each knob must reject it (and
// infinity) explicitly: an infinite sigma or a NaN tail multiplier hung
// the event loop, a NaN sigma or probability was accepted silently.
TEST(NoiseSpec, RejectsMalformedSpecs) {
  sim::NoiseSpec spec;
  spec.sigma = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.sigma = 0.0;
  spec.heavy_tail_prob = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.heavy_tail_prob = 0.1;
  spec.heavy_tail_multiplier = 0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = sim::NoiseSpec{};
  spec.heavy_tail_prob = kNaN;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  for (const double bad : {kNaN, kInfinity}) {
    spec = sim::NoiseSpec{};
    spec.sigma = bad;
    EXPECT_THROW(spec.validate(), std::invalid_argument) << bad;
    spec = sim::NoiseSpec{};
    spec.heavy_tail_prob = 0.5;
    spec.heavy_tail_multiplier = bad;
    EXPECT_THROW(spec.validate(), std::invalid_argument) << bad;
  }
}

TEST(HedgeSpec, RejectsMalformedSpecs) {
  sim::HedgeSpec spec;
  EXPECT_NO_THROW(spec.validate());
  spec.quantile = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.quantile = kNaN;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.quantile = 0.95;
  spec.threshold_factor = 0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  for (const double bad : {kNaN, kInfinity}) {
    spec.threshold_factor = bad;
    EXPECT_THROW(spec.validate(), std::invalid_argument) << bad;
  }
  spec.threshold_factor = 1.5;
  spec.window = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(StreamOptions, RejectsNonFiniteWarmupAndHorizon) {
  for (const double bad : {kNaN, kInfinity}) {
    stream::StreamOptions opts;
    opts.arrivals = stream::ArrivalSpec::poisson(0.001, 1);
    opts.max_apps = 4;
    EXPECT_NO_THROW(opts.validate());
    opts.warmup_ms = bad;
    EXPECT_THROW(opts.validate(), std::invalid_argument) << bad;
    opts.warmup_ms = 0.0;
    opts.horizon_ms = bad;
    EXPECT_THROW(opts.validate(), std::invalid_argument) << bad;

    core::StreamPlan plan;
    plan.families = {"type1"};
    plan.rates_per_ms = {0.001};
    plan.policy_specs = {"met"};
    plan.horizon_ms = 1000.0;
    EXPECT_NO_THROW(plan.validate());
    plan.warmup_ms = bad;
    EXPECT_THROW(plan.validate(), std::invalid_argument) << bad;
    plan.warmup_ms = 0.0;
    plan.horizon_ms = bad;
    EXPECT_THROW(plan.validate(), std::invalid_argument) << bad;
  }
}

// A spec can validate and still realize garbage: sigma = 50 underflows
// exp(sigma z - sigma^2/2) to 0 (kernels would beat their lower bound),
// and a finite 1e308 tail multiplier overflows the execution time to inf.
// Both engines must refuse the run instead of reporting it.
TEST(EngineNoise, RealizedMultipliersOutsideZeroToInfinityAreRejected) {
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);
  sim::NoiseSpec underflow;
  underflow.sigma = 50.0;
  sim::NoiseSpec overflow;
  overflow.heavy_tail_prob = 1.0;
  overflow.heavy_tail_multiplier = 1e308;
  for (const sim::NoiseSpec& noise : {underflow, overflow}) {
    ASSERT_NO_THROW(noise.validate());
    sim::EngineOptions options;
    options.noise = noise;
    const auto closed_policy = core::make_policy("met");
    sim::Engine closed(graph, system, cost, options);
    EXPECT_THROW(closed.run(*closed_policy), std::invalid_argument)
        << noise.sigma;

    stream::StreamOptions opts;
    opts.arrivals = stream::ArrivalSpec::trace({0.0});
    opts.noise = noise;
    stream::StreamEngine streamed(
        system, cost, [&](std::size_t) { return graph; }, opts);
    const auto stream_policy = core::make_policy("met");
    EXPECT_THROW(streamed.run(*stream_policy), std::invalid_argument)
        << noise.sigma;
  }
}

TEST(NoiseMultiplier, DisabledSpecReturnsExactlyOne) {
  const sim::NoiseSpec spec;  // disabled
  for (std::uint64_t inst = 0; inst < 4; ++inst)
    for (std::uint64_t node = 0; node < 4; ++node)
      EXPECT_EQ(sim::noise_multiplier(spec, inst, node), 1.0);
}

TEST(NoiseMultiplier, PureFunctionOfItsArguments) {
  sim::NoiseSpec spec;
  spec.sigma = 0.3;
  spec.heavy_tail_prob = 0.05;
  spec.seed = 99;
  const double a = sim::noise_multiplier(spec, 3, 17, 0);
  EXPECT_EQ(a, sim::noise_multiplier(spec, 3, 17, 0));  // bitwise
  // Instance, node, replica, and seed all decorrelate the draw.
  EXPECT_NE(a, sim::noise_multiplier(spec, 4, 17, 0));
  EXPECT_NE(a, sim::noise_multiplier(spec, 3, 18, 0));
  EXPECT_NE(a, sim::noise_multiplier(spec, 3, 17, 1));
  spec.seed = 100;
  EXPECT_NE(a, sim::noise_multiplier(spec, 3, 17, 0));
}

TEST(NoiseMultiplier, LognormalFactorIsMeanPreserving) {
  sim::NoiseSpec spec;
  spec.sigma = 0.5;
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double m = sim::noise_multiplier(spec, 0, i);
    ASSERT_GT(m, 0.0);
    sum += m;
  }
  EXPECT_NEAR(sum / kDraws, 1.0, 0.02);
}

TEST(NoiseMultiplier, CertainHeavyTailScalesByExactlyTheMultiplier) {
  // sigma 0 leaves only the Bernoulli factor; probability 1 fires always.
  sim::NoiseSpec spec;
  spec.heavy_tail_prob = 1.0;
  spec.heavy_tail_multiplier = 50.0;
  EXPECT_DOUBLE_EQ(sim::noise_multiplier(spec, 0, 0), 50.0);
  EXPECT_DOUBLE_EQ(sim::noise_multiplier(spec, 7, 3), 50.0);
}

// --- Closed-system engine under noise ----------------------------------------

TEST(EngineNoise, RealizedTimesAreNominalTimesTheRecordedMultiplier) {
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);

  sim::EngineOptions options;
  options.noise.sigma = 0.4;
  options.noise.heavy_tail_prob = 0.05;
  options.noise.seed = 7;

  const auto policy = core::make_policy("apt:4");
  sim::Engine engine(graph, system, cost, options);
  const sim::SimResult result = engine.run(*policy);

  for (const auto& v :
       sim::validate_schedule(graph, system, cost, result))
    ADD_FAILURE() << v.message;
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    // Hedging is off, so every record describes the primary attempt and
    // carries the instance-0 primary draw of the pure noise function.
    EXPECT_DOUBLE_EQ(result.schedule[n].noise_mult,
                     sim::noise_multiplier(options.noise, 0, n, 0))
        << n;
  }
}

TEST(EngineNoise, DisabledNoiseReproducesTheDefaultTimelineBitwise) {
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 0);

  const auto a = core::make_policy("apt:4");
  sim::Engine plain(graph, system, cost);
  const sim::SimResult base = plain.run(*a);

  const auto b = core::make_policy("apt:4");
  sim::Engine with_options(graph, system, cost, sim::EngineOptions{});
  const sim::SimResult opt = with_options.run(*b);

  ASSERT_EQ(base.schedule.size(), opt.schedule.size());
  EXPECT_EQ(base.makespan, opt.makespan);  // bitwise
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    EXPECT_EQ(base.schedule[n].proc, opt.schedule[n].proc) << n;
    EXPECT_EQ(base.schedule[n].finish_time, opt.schedule[n].finish_time) << n;
    EXPECT_EQ(opt.schedule[n].noise_mult, 1.0) << n;
  }
}

TEST(EngineNoise, HedgingOnWithNoiseOffChangesNothingAndLaunchesNothing) {
  // Threshold >= nominal × factor > nominal and completions pop before
  // hedge checks at equal timestamps, so a noise-free kernel always
  // finishes before its hedge check fires.
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);

  const auto a = core::make_policy("met");
  sim::Engine plain(graph, system, cost);
  const sim::SimResult base = plain.run(*a);

  sim::EngineOptions options;
  options.hedging.enabled = true;
  const auto b = core::make_policy("met");
  sim::Engine hedged(graph, system, cost, options);
  const sim::SimResult opt = hedged.run(*b);

  EXPECT_TRUE(opt.hedges.empty());
  EXPECT_EQ(base.makespan, opt.makespan);  // bitwise
  for (dag::NodeId n = 0; n < graph.node_count(); ++n)
    EXPECT_EQ(base.schedule[n].finish_time, opt.schedule[n].finish_time) << n;
}

TEST(EngineHedging, StragglersAreHedgedAndValidatorsEnforceOneWinner) {
  // A chain keeps two of three processors idle, so every straggler has a
  // replica slot available; a hot heavy tail makes stragglers common.
  const sim::System system = test::generic_system(3);
  std::vector<dag::Node> nodes;
  for (int i = 0; i < 60; ++i) nodes.push_back(dag::Node{"k", 1});
  const dag::Dag graph = test::chain(nodes);
  const sim::MatrixCostModel cost(
      std::vector<std::vector<sim::TimeMs>>(60, {10.0, 10.0, 10.0}));

  sim::EngineOptions options;
  options.noise.sigma = 0.1;
  options.noise.heavy_tail_prob = 0.3;
  options.noise.heavy_tail_multiplier = 30.0;
  options.noise.seed = 3;
  options.hedging.enabled = true;
  options.hedging.min_samples = 4;

  const auto policy = core::make_policy("met");
  sim::Engine engine(graph, system, cost, options);
  const sim::SimResult result = engine.run(*policy);

  ASSERT_FALSE(result.hedges.empty());
  bool replica_won = false;
  for (const sim::HedgeRecord& h : result.hedges) {
    EXPECT_GE(h.wasted_ms(), 0.0);
    replica_won |= h.replica_won;
  }
  EXPECT_TRUE(replica_won) << "30x stragglers should lose some races";
  // validate_schedule audits the hedge records: exactly one winning
  // attempt per hedged kernel, the loser cancelled at the winner's finish,
  // and loser occupation spans pooled into processor exclusivity.
  for (const auto& v :
       sim::validate_schedule(graph, system, cost, result))
    ADD_FAILURE() << v.message;
}

TEST(EngineHedging, RejectedOnContendedTopologies) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.topology = net::parse_topology_spec("bus");
  const sim::System system(cfg);
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);

  sim::EngineOptions options;
  options.hedging.enabled = true;
  const auto policy = core::make_policy("met");
  sim::Engine engine(graph, system, cost, options);
  EXPECT_THROW(engine.run(*policy), std::invalid_argument);
}

// --- Stream engine under noise + hedging -------------------------------------

TEST(StreamNoise, SingleArrivalMatchesTheClosedEngineDrawForDraw) {
  // Instance 0 in both engines — the cross-engine seed contract.
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);

  sim::NoiseSpec noise;
  noise.sigma = 0.35;
  noise.heavy_tail_prob = 0.05;
  noise.seed = 21;

  sim::EngineOptions closed_options;
  closed_options.noise = noise;
  const auto closed_policy = core::make_policy("met");
  sim::Engine closed(graph, system, cost, closed_options);
  const sim::SimResult batch = closed.run(*closed_policy);

  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace({0.0});
  opts.record_schedules = true;
  opts.noise = noise;
  stream::StreamEngine streamed(
      system, cost, [&](std::size_t) { return graph; }, opts);
  const auto stream_policy = core::make_policy("met");
  const stream::StreamOutcome outcome = streamed.run(*stream_policy);

  ASSERT_EQ(outcome.schedules.size(), 1u);
  const sim::SimResult& s = outcome.schedules[0].result;
  EXPECT_EQ(s.makespan, batch.makespan);  // bitwise
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    EXPECT_EQ(s.schedule[n].noise_mult, batch.schedule[n].noise_mult) << n;
    EXPECT_EQ(s.schedule[n].finish_time, batch.schedule[n].finish_time) << n;
  }
}

TEST(StreamHedging, RecordsValidateAcrossInstances) {
  const sim::System system = test::generic_system(4);
  const sim::MatrixCostModel cost(
      std::vector<std::vector<sim::TimeMs>>(3, {10.0, 10.0, 10.0, 10.0}));

  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::deterministic(0.05);  // gap 20 ms
  opts.max_apps = 120;
  opts.horizon_ms = 0.0;
  opts.record_schedules = true;
  opts.noise.sigma = 0.1;
  opts.noise.heavy_tail_prob = 0.25;
  opts.noise.heavy_tail_multiplier = 25.0;
  opts.noise.seed = 5;
  opts.hedging.enabled = true;
  opts.hedging.min_samples = 4;

  // Three-kernel chains leave processors idle for replicas.
  stream::DagSource source = [](std::size_t) {
    dag::Dag d;
    d.add_node("a", 1);
    d.add_node("b", 1);
    d.add_node("c", 1);
    d.add_edge(0, 1);
    d.add_edge(1, 2);
    return d;
  };
  stream::StreamEngine engine(system, cost, source, opts);
  const auto policy = core::make_policy("met");
  const stream::StreamOutcome outcome = engine.run(*policy);

  EXPECT_GT(outcome.metrics.hedges_launched, 0u);
  EXPECT_GE(outcome.metrics.hedges_launched,
            outcome.metrics.hedges_replica_won);

  std::vector<sim::StreamAppView> views;
  std::size_t hedge_records = 0;
  for (const auto& app : outcome.schedules) {
    views.push_back(
        sim::StreamAppView{&app.dag, app.arrival_ms, &app.result});
    hedge_records += app.result.hedges.size();
  }
  EXPECT_EQ(hedge_records, outcome.metrics.hedges_launched);
  for (const auto& v : sim::validate_stream_schedule(system, views))
    ADD_FAILURE() << v.message;
}

TEST(StreamHedging, RecycledSlotsStartWithFreshHedgeState) {
  // Instances arrive far apart, so each runs alone and every one after the
  // first reuses the slots of the one before. With the rolling window never
  // trusted (min_samples out of reach) nothing else carries over between
  // instances, so instance k must schedule exactly as in a stream where it
  // is the only non-empty arrival and its slots are fresh.
  const sim::System system = test::generic_system(4);
  const sim::MatrixCostModel cost(
      std::vector<std::vector<sim::TimeMs>>(3, {10.0, 10.0, 10.0, 10.0}));
  constexpr std::size_t kApps = 30;
  std::vector<double> instants;
  for (std::size_t i = 0; i < kApps; ++i)
    instants.push_back(10000.0 * static_cast<double>(i));

  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace(instants);
  opts.record_schedules = true;
  opts.noise.sigma = 0.1;
  opts.noise.heavy_tail_prob = 0.4;
  opts.noise.heavy_tail_multiplier = 25.0;
  opts.noise.seed = 9;
  opts.hedging.enabled = true;
  opts.hedging.min_samples = 1000000;

  const auto chain = [] {
    dag::Dag d;
    d.add_node("a", 1);
    d.add_node("b", 1);
    d.add_node("c", 1);
    d.add_edge(0, 1);
    d.add_edge(1, 2);
    return d;
  };
  const auto run = [&](const stream::DagSource& source) {
    stream::StreamEngine engine(system, cost, source, opts);
    const auto policy = core::make_policy("met");
    return engine.run(*policy);
  };
  const stream::StreamOutcome all = run([&](std::size_t) { return chain(); });
  ASSERT_EQ(all.schedules.size(), kApps);
  ASSERT_GT(all.metrics.hedges_launched, kApps / 2);

  for (std::size_t k = 0; k < kApps; ++k) {
    const stream::DagSource only_k = [&](std::size_t i) {
      return i == k ? chain() : dag::Dag{};
    };
    const stream::StreamOutcome alone = run(only_k);
    ASSERT_EQ(alone.schedules.size(), kApps);
    const sim::SimResult& want = alone.schedules[k].result;
    const sim::SimResult& got = all.schedules[k].result;
    ASSERT_EQ(got.schedule.size(), want.schedule.size()) << k;
    for (dag::NodeId n = 0; n < want.schedule.size(); ++n) {
      EXPECT_EQ(got.schedule[n].proc, want.schedule[n].proc) << k;
      EXPECT_EQ(got.schedule[n].finish_time, want.schedule[n].finish_time)
          << k << " node " << n;
    }
    ASSERT_EQ(got.hedges.size(), want.hedges.size()) << k;
    for (std::size_t h = 0; h < want.hedges.size(); ++h) {
      EXPECT_EQ(got.hedges[h].node, want.hedges[h].node) << k;
      EXPECT_EQ(got.hedges[h].replica_won, want.hedges[h].replica_won) << k;
      EXPECT_EQ(got.hedges[h].cancelled_ms, want.hedges[h].cancelled_ms) << k;
    }
  }
}

TEST(StreamHedging, RejectedOnContendedTopologies) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.topology = net::parse_topology_spec("mesh:2x2");
  const sim::System system(cfg);
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);

  stream::StreamOptions opts;
  opts.arrivals = stream::ArrivalSpec::trace({0.0});
  opts.hedging.enabled = true;
  stream::StreamEngine engine(
      system, cost,
      [](std::size_t) { return dag::paper_graph(dag::DfgType::Type1, 0); },
      opts);
  const auto policy = core::make_policy("met");
  EXPECT_THROW(engine.run(*policy), std::invalid_argument);
}

// --- Plan-level wiring -------------------------------------------------------

TEST(StreamPlanNoise, BitIdenticalAcrossJobCountsWithNoiseAndHedging) {
  core::StreamPlan plan;
  plan.families = {"layered"};
  plan.rates_per_ms = {0.01};
  plan.policy_specs = {"apt:4", "met"};
  plan.horizon_ms = 4000.0;
  plan.warmup_ms = 400.0;
  plan.noise.sigma = 0.25;
  plan.noise.heavy_tail_prob = 0.05;
  plan.hedging.enabled = true;

  const core::StreamBatchResult one =
      core::run_stream_plan(plan, core::BatchRunner(1));
  const core::StreamBatchResult four =
      core::run_stream_plan(plan, core::BatchRunner(4));
  ASSERT_EQ(one.cells.size(), four.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    const sim::StreamMetrics& a = one.cells[i].metrics;
    const sim::StreamMetrics& b = four.cells[i].metrics;
    EXPECT_EQ(a.flow_ms.avg, b.flow_ms.avg) << i;      // bitwise
    EXPECT_EQ(a.flow_ms.p99, b.flow_ms.p99) << i;      // bitwise
    EXPECT_EQ(a.hedges_launched, b.hedges_launched) << i;
    EXPECT_EQ(a.hedge_wasted_ms, b.hedge_wasted_ms) << i;
  }
}

TEST(StreamPlanNoise, HedgingReducesTailFlowUnderHeavyTails) {
  // The ablation the feature exists for: same workload, same noise draws
  // (the noise seed is derived from the row's workload seed, not the
  // cell), hedging off vs on — the hedged run must improve p99 flow.
  core::StreamPlan plan;
  plan.families = {"type1"};
  plan.rates_per_ms = {0.005};
  plan.policy_specs = {"apt:4"};
  plan.max_apps = 30;
  plan.horizon_ms = 0.0;
  plan.warmup_ms = 0.0;
  plan.noise.sigma = 0.3;
  plan.noise.heavy_tail_prob = 0.05;
  plan.noise.heavy_tail_multiplier = 20.0;

  const core::BatchRunner runner(1);
  plan.hedging.enabled = false;
  const core::StreamBatchResult off = core::run_stream_plan(plan, runner);
  plan.hedging.enabled = true;
  const core::StreamBatchResult on = core::run_stream_plan(plan, runner);

  const sim::StreamMetrics& m_off = off.cells[0].metrics;
  const sim::StreamMetrics& m_on = on.cells[0].metrics;
  EXPECT_EQ(m_off.hedges_launched, 0u);
  EXPECT_GT(m_on.hedges_launched, 0u);
  EXPECT_LT(m_on.flow_ms.p99, m_off.flow_ms.p99);
}

TEST(StreamPlanNoise, TracePlansValidateAndReplay) {
  core::StreamPlan plan;
  plan.families = {"layered"};
  plan.rates_per_ms = {0.01};  // label only under a trace
  plan.policy_specs = {"met"};
  plan.arrival_kind = stream::ArrivalKind::Trace;
  plan.horizon_ms = 0.0;
  plan.warmup_ms = 0.0;

  EXPECT_THROW(plan.validate(), std::invalid_argument);  // no instants
  plan.trace_arrivals = {5.0, 2.0};
  EXPECT_THROW(plan.validate(), std::invalid_argument);  // unsorted
  plan.trace_arrivals = {0.0, 50.0, 120.0};
  EXPECT_NO_THROW(plan.validate());

  const core::StreamBatchResult result =
      core::run_stream_plan(plan, core::BatchRunner(1));
  EXPECT_EQ(result.cells[0].metrics.apps_arrived, 3u);
  EXPECT_EQ(result.cells[0].metrics.apps_completed, 3u);
}

}  // namespace
}  // namespace apt
