// End-to-end tests of the contention-aware interconnect subsystem:
//
//  * the ideal topology reproduces the default engine bit for bit (the
//    golden suite pins the default; this file pins ideal == default);
//  * property: over 120 seeded scenarios on a finite-bandwidth bus, every
//    policy's schedule passes the validator — including the per-link
//    capacity check, so no link ever exceeds its bandwidth;
//  * HEFT makespans are monotonically non-decreasing as bus bandwidth
//    shrinks;
//  * the stream engine under contention passes the cross-instance
//    validator and reproduces the closed-system engine on single-arrival
//    streams.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/policy_factory.hpp"
#include "lut/synthetic.hpp"
#include "net/topology.hpp"
#include "policies/heft.hpp"
#include "policies/static_plan.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/validate.hpp"
#include "stream/stream_engine.hpp"

namespace apt {
namespace {

sim::System make_system(const std::string& topology, double bandwidth_gbps,
                        double latency_ms = 0.0, double rate_gbps = 4.0) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default(rate_gbps);
  cfg.topology = net::parse_topology_spec(topology);
  cfg.topology.bandwidth_gbps = bandwidth_gbps;
  cfg.topology.latency_ms = latency_ms;
  return sim::System(cfg);
}

/// A communication-heavy synthetic platform so contention actually bites.
lut::LookupTable test_table() {
  lut::SyntheticLutSpec spec;
  spec.ccr = 1.0;
  spec.heterogeneity = 4.0;
  spec.seed = 0xBEEF;
  return lut::synthetic_lookup_table(spec);
}

TEST(NetIntegration, IdealTopologyMatchesDefaultBitForBit) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const sim::System standard(sim::SystemConfig::paper_default());
  const sim::System ideal = make_system("ideal", 0.0);
  for (const std::string spec : {"apt:4", "ag", "heft", "peft"}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const dag::Dag graph = scenario::generate("layered", 40, seed, pool);
      const sim::LutCostModel cost_a(table, standard);
      const sim::LutCostModel cost_b(table, ideal);
      auto policy_a = core::make_policy(spec);
      auto policy_b = core::make_policy(spec);
      const sim::SimResult a =
          sim::Engine(graph, standard, cost_a).run(*policy_a);
      const sim::SimResult b = sim::Engine(graph, ideal, cost_b).run(*policy_b);
      ASSERT_EQ(a.makespan, b.makespan) << spec << " seed " << seed;
      ASSERT_TRUE(b.transfers.empty());
      for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
        ASSERT_EQ(a.schedule[n].proc, b.schedule[n].proc);
        ASSERT_EQ(a.schedule[n].exec_start, b.schedule[n].exec_start);
        ASSERT_EQ(a.schedule[n].finish_time, b.schedule[n].finish_time);
        ASSERT_EQ(a.schedule[n].transfer_ms, b.schedule[n].transfer_ms);
      }
    }
  }
}

// The headline property: >= 120 seeded scenarios on a finite-bandwidth
// bus, five policies each, every schedule validator-clean — which includes
// the link-capacity invariant (bytes <= bandwidth x busy time per link).
TEST(NetIntegration, BusSchedulesAreValidatorCleanAcrossScenarioCube) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const std::vector<std::string> families = {"layered", "forkjoin", "intree",
                                             "type2"};
  const std::vector<std::string> specs = {"apt:4", "met", "ag", "heft",
                                          "peft"};
  const sim::System system = make_system("bus", 1.0, 0.05);
  const sim::LutCostModel cost(table, system);
  std::size_t scenarios = 0;
  std::size_t transfers_seen = 0;
  for (const std::string& family : families) {
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const dag::Dag graph = scenario::generate(family, 30, seed, pool);
      ++scenarios;
      for (const std::string& spec : specs) {
        auto policy = core::make_policy(spec);
        const sim::SimResult result =
            sim::Engine(graph, system, cost).run(*policy);
        transfers_seen += result.transfers.size();
        const auto violations =
            sim::validate_schedule(graph, system, cost, result);
        for (const auto& v : violations)
          ADD_FAILURE() << family << "/" << seed << "/" << spec << ": "
                        << v.message;
      }
    }
  }
  EXPECT_GE(scenarios, 120u);
  // The cube genuinely exercises the links (a policy may occasionally pin
  // one graph to a single processor, but not the whole cube).
  EXPECT_GT(transfers_seen, 1000u);
}

/// Replays a fixed static plan — the harness for the monotonicity
/// property: with the placement held constant, shrinking bandwidth can
/// only delay transfers, so makespans must be non-decreasing. (A
/// re-planning HEFT is *not* monotone: at very low bandwidth its
/// topology-aware ranks produce comm-free plans that legitimately beat
/// its high-bandwidth schedules.)
class ReplayPolicy final : public policies::StaticPolicyBase {
 public:
  explicit ReplayPolicy(policies::StaticPlan plan)
      : replay_(std::move(plan)) {}
  std::string name() const override { return "replay"; }

 protected:
  policies::StaticPlan compute_plan(const dag::Dag&, const sim::System&,
                                    const sim::CostModel&) override {
    return replay_;
  }

 private:
  policies::StaticPlan replay_;
};

TEST(NetIntegration, HeftMakespanMonotoneAsBandwidthShrinks) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const std::vector<double> bandwidths = {16.0, 4.0, 1.0, 0.25};  // shrinking
  for (const std::string family : {"layered", "type2", "forkjoin"}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const dag::Dag graph = scenario::generate(family, 30, seed, pool);
      // HEFT plans once against the best fabric; the plan then replays
      // under every bandwidth.
      policies::Heft heft;
      const sim::System planning_system = make_system("bus", bandwidths[0]);
      const sim::LutCostModel planning_cost(table, planning_system);
      sim::Engine(graph, planning_system, planning_cost).run(heft);
      const policies::StaticPlan plan = heft.plan();

      double previous = 0.0;
      for (const double bw : bandwidths) {
        const sim::System system = make_system("bus", bw);
        const sim::LutCostModel cost(table, system);
        ReplayPolicy replay(plan);
        const sim::SimResult result =
            sim::Engine(graph, system, cost).run(replay);
        const auto violations =
            sim::validate_schedule(graph, system, cost, result);
        for (const auto& v : violations)
          ADD_FAILURE() << family << "/" << seed << "/bw" << bw << ": "
                        << v.message;
        EXPECT_GE(result.makespan + 1e-6, previous)
            << family << " seed " << seed << " at bw " << bw;
        previous = std::max(previous, result.makespan);
      }
    }
  }
}

TEST(NetIntegration, ContendedMetricsReportLinksAndOverlap) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const dag::Dag graph = scenario::generate("layered", 40, 3, pool);
  const sim::System system = make_system("bus", 0.5);
  const sim::LutCostModel cost(table, system);
  auto policy = core::make_policy("apt:4");
  const sim::SimResult result = sim::Engine(graph, system, cost).run(*policy);
  const sim::SimMetrics metrics = sim::compute_metrics(graph, system, result);
  ASSERT_EQ(metrics.per_link.size(), 1u);
  const sim::LinkBreakdown& bus = metrics.per_link[0];
  EXPECT_EQ(bus.name, "bus");
  EXPECT_GT(bus.busy_ms, 0.0);
  EXPECT_GT(bus.bytes, 0.0);
  EXPECT_EQ(bus.transfer_count, result.transfers.size());
  EXPECT_LE(bus.utilization, 1.0 + 1e-9);
  EXPECT_LE(metrics.comm_compute_overlap_ms, metrics.comm_busy_ms + 1e-9);
  EXPECT_LE(metrics.comm_busy_ms, metrics.makespan + 1e-9);
  // The link can never deliver more than bandwidth x busy time.
  EXPECT_LE(bus.bytes, 0.5 * 1e6 * bus.busy_ms * (1.0 + 1e-9));
}

TEST(NetIntegration, HierarchicalSocketTransfersAreLocal) {
  // CPU+GPU share socket 0, FPGA sits alone in socket 1: only edges that
  // cross the socket boundary may appear in the transfer log.
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const dag::Dag graph = scenario::generate("type2", 30, 5, pool);
  const sim::System system = make_system("hier:2", 1.0);
  const sim::LutCostModel cost(table, system);
  auto policy = core::make_policy("ag");
  const sim::SimResult result = sim::Engine(graph, system, cost).run(*policy);
  for (const sim::TransferRecord& t : result.transfers) {
    const bool crosses = (t.from / 2) != (t.to / 2);
    EXPECT_TRUE(crosses) << "intra-socket transfer " << t.from << "->"
                         << t.to;
  }
  const auto violations = sim::validate_schedule(graph, system, cost, result);
  for (const auto& v : violations) ADD_FAILURE() << v.message;
}

TEST(NetIntegration, StreamEngineUnderBusIsValidatorClean) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const sim::System system = make_system("bus", 1.0, 0.05);
  const sim::LutCostModel cost(table, system);

  stream::StreamOptions options;
  options.arrivals = stream::ArrivalSpec::deterministic(0.0005);  // 2 s gaps
  options.max_apps = 8;
  options.record_schedules = true;
  stream::StreamEngine engine(
      system, cost,
      [&](std::size_t index) {
        return scenario::generate("layered", 24, 100 + index, pool);
      },
      options);
  auto policy = core::make_policy("apt:4");
  const stream::StreamOutcome outcome = engine.run(*policy);
  ASSERT_EQ(outcome.schedules.size(), 8u);

  std::vector<sim::StreamAppView> views;
  bool any_transfers = false;
  for (const auto& app : outcome.schedules) {
    views.push_back(sim::StreamAppView{&app.dag, app.arrival_ms, &app.result});
    any_transfers = any_transfers || !app.result.transfers.empty();
  }
  EXPECT_TRUE(any_transfers);
  const auto violations = sim::validate_stream_schedule(system, views);
  for (const auto& v : violations) ADD_FAILURE() << v.message;
  ASSERT_FALSE(outcome.metrics.per_link.empty());
  EXPECT_GT(outcome.metrics.per_link[0].transfer_count, 0u);
  EXPECT_GT(outcome.metrics.per_link[0].bytes, 0.0);
}

TEST(NetIntegration, SingleArrivalStreamMatchesEngineUnderBus) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const dag::Dag graph = scenario::generate("forkjoin", 30, 11, pool);
  const sim::System system = make_system("bus", 1.0);
  const sim::LutCostModel cost(table, system);

  auto engine_policy = core::make_policy("apt:4");
  const sim::SimResult closed =
      sim::Engine(graph, system, cost).run(*engine_policy);

  stream::StreamOptions options;
  options.arrivals = stream::ArrivalSpec::trace({0.0});
  options.record_schedules = true;
  stream::StreamEngine stream_engine(
      system, cost, [&](std::size_t) { return graph; }, options);
  auto stream_policy = core::make_policy("apt:4");
  const stream::StreamOutcome outcome = stream_engine.run(*stream_policy);
  ASSERT_EQ(outcome.schedules.size(), 1u);
  const sim::SimResult& open = outcome.schedules[0].result;
  ASSERT_EQ(open.schedule.size(), closed.schedule.size());
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    EXPECT_EQ(open.schedule[n].proc, closed.schedule[n].proc) << n;
    EXPECT_EQ(open.schedule[n].exec_start, closed.schedule[n].exec_start) << n;
    EXPECT_EQ(open.schedule[n].finish_time, closed.schedule[n].finish_time)
        << n;
  }
  ASSERT_EQ(open.transfers.size(), closed.transfers.size());
  for (std::size_t i = 0; i < open.transfers.size(); ++i) {
    EXPECT_EQ(open.transfers[i].finish, closed.transfers[i].finish) << i;
    EXPECT_EQ(open.transfers[i].path, closed.transfers[i].path) << i;
  }
}

// Routed-topology property: ring / mesh / fattree scenarios across the
// family cube, every schedule validator-clean — the per-link capacity
// check now unions busy time over every hop of each multi-link route, so
// a transfer manager that oversubscribed any relay link would fail here.
TEST(NetIntegration, RoutedSchedulesAreValidatorCleanAcrossScenarioCube) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const std::vector<std::string> families = {"layered", "forkjoin", "intree",
                                             "type2"};
  const std::vector<std::string> topologies = {"ring:5", "mesh:2x2",
                                               "fattree:2"};
  // The comm-aware variants ride the same cube: backlog-priced choices
  // must still produce validator-clean schedules on every routed fabric.
  const std::vector<std::string> specs = {"apt:4", "apt-c:4", "apt-q:4",
                                          "ag", "ag-net", "heft"};
  std::size_t scenarios = 0;
  std::size_t transfers_seen = 0;
  std::size_t multi_hop_seen = 0;
  for (const std::string& topology : topologies) {
    const sim::System system = make_system(topology, 1.0, 0.05);
    const sim::LutCostModel cost(table, system);
    for (const std::string& family : families) {
      for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const dag::Dag graph = scenario::generate(family, 24, seed, pool);
        ++scenarios;
        for (const std::string& spec : specs) {
          auto policy = core::make_policy(spec);
          const sim::SimResult result =
              sim::Engine(graph, system, cost).run(*policy);
          for (const sim::TransferRecord& t : result.transfers) {
            ++transfers_seen;
            if (t.hops() > 1) ++multi_hop_seen;
          }
          const auto violations =
              sim::validate_schedule(graph, system, cost, result);
          for (const auto& v : violations)
            ADD_FAILURE() << topology << "/" << family << "/" << seed << "/"
                          << spec << ": " << v.message;
        }
      }
    }
  }
  EXPECT_GE(scenarios, 120u);
  EXPECT_GT(transfers_seen, 1000u);
  // The cube genuinely exercises relaying: plenty of routes span > 1 link.
  EXPECT_GT(multi_hop_seen, 100u);
}

TEST(NetIntegration, SingleArrivalStreamMatchesEngineUnderRing) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const dag::Dag graph = scenario::generate("type2", 30, 4, pool);
  const sim::System system = make_system("ring:5", 1.0, 0.05);
  const sim::LutCostModel cost(table, system);

  auto engine_policy = core::make_policy("apt:4");
  const sim::SimResult closed =
      sim::Engine(graph, system, cost).run(*engine_policy);

  stream::StreamOptions options;
  options.arrivals = stream::ArrivalSpec::trace({0.0});
  options.record_schedules = true;
  stream::StreamEngine stream_engine(
      system, cost, [&](std::size_t) { return graph; }, options);
  auto stream_policy = core::make_policy("apt:4");
  const stream::StreamOutcome outcome = stream_engine.run(*stream_policy);
  ASSERT_EQ(outcome.schedules.size(), 1u);
  const sim::SimResult& open = outcome.schedules[0].result;
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    ASSERT_EQ(open.schedule[n].proc, closed.schedule[n].proc) << n;
    ASSERT_EQ(open.schedule[n].finish_time, closed.schedule[n].finish_time)
        << n;
  }
  ASSERT_EQ(open.transfers.size(), closed.transfers.size());
  for (std::size_t i = 0; i < open.transfers.size(); ++i) {
    EXPECT_EQ(open.transfers[i].finish, closed.transfers[i].finish) << i;
    EXPECT_EQ(open.transfers[i].path, closed.transfers[i].path) << i;
  }
}

// --- done_eps completion contract through both engines -----------------------

namespace {

/// Two CPUs joined by a slow, lossy-latency bus; the matrix forces the
/// chain's producer onto P0 and its consumer onto P1, so the one edge
/// always crosses the link.
sim::System two_proc_bus() {
  sim::SystemConfig cfg;
  cfg.processors.assign(2, lut::ProcType::CPU);
  cfg.topology = net::parse_topology_spec("bus");
  cfg.topology.bandwidth_gbps = 1.0;
  cfg.topology.latency_ms = 0.1;
  return sim::System(cfg);
}

dag::Dag crossing_chain(std::uint64_t producer_elements) {
  dag::Dag d;
  d.add_node(dag::Node{"produce", producer_elements});
  d.add_node(dag::Node{"consume", 1});
  d.add_edge(0, 1);
  return d;
}

sim::MatrixCostModel crossing_cost() {
  return sim::MatrixCostModel({{1.0, 100.0}, {100.0, 1.0}});
}

}  // namespace

// A zero-byte (latency-only) edge and a multi-GB edge must both deliver
// exactly once and never stall the closed-system event loop.
TEST(NetIntegration, DoneEpsContractHoldsThroughEngine) {
  const sim::System system = two_proc_bus();
  for (const std::uint64_t elements : {std::uint64_t{0},
                                       std::uint64_t{1000000000}}) {
    const dag::Dag graph = crossing_chain(elements);
    const sim::MatrixCostModel cost = crossing_cost();
    auto policy = core::make_policy("met");
    const sim::SimResult result =
        sim::Engine(graph, system, cost).run(*policy);
    ASSERT_EQ(result.transfers.size(), 1u) << elements;
    const sim::TransferRecord& t = result.transfers[0];
    const double bytes = static_cast<double>(elements) * 4.0;
    EXPECT_DOUBLE_EQ(t.bytes, bytes);
    // 1 GB/s == 1e6 bytes/ms; the lone message drains uncontended, so its
    // finish is exactly drain_start + bytes / rate (0 for the latency-only
    // edge: delivered at activation).
    EXPECT_NEAR(t.finish, t.drain_start + bytes / 1e6,
                1e-9 * std::max(1.0, bytes / 1e6));
    EXPECT_DOUBLE_EQ(t.drain_start, t.start + 0.1);
    const auto violations =
        sim::validate_schedule(graph, system, cost, result);
    for (const auto& v : violations) ADD_FAILURE() << v.message;
  }
}

TEST(NetIntegration, DoneEpsContractHoldsThroughStreamEngine) {
  const sim::System system = two_proc_bus();
  for (const std::uint64_t elements : {std::uint64_t{0},
                                       std::uint64_t{1000000000}}) {
    const dag::Dag graph = crossing_chain(elements);
    const sim::MatrixCostModel cost = crossing_cost();
    stream::StreamOptions options;
    options.arrivals = stream::ArrivalSpec::trace({0.0});
    options.record_schedules = true;
    stream::StreamEngine engine(
        system, cost, [&](std::size_t) { return graph; }, options);
    auto policy = core::make_policy("met");
    const stream::StreamOutcome outcome = engine.run(*policy);
    ASSERT_EQ(outcome.schedules.size(), 1u) << elements;
    const sim::SimResult& result = outcome.schedules[0].result;
    ASSERT_EQ(result.transfers.size(), 1u) << elements;
    const double bytes = static_cast<double>(elements) * 4.0;
    EXPECT_NEAR(result.transfers[0].finish,
                result.transfers[0].drain_start + bytes / 1e6,
                1e-9 * std::max(1.0, bytes / 1e6));
    EXPECT_EQ(outcome.metrics.apps_completed, 1u);
  }
}

// --- stream link-metrics warmup clipping (regression) ------------------------

// All communication happens during warmup; one compute-only app after the
// boundary keeps the run alive past it. The steady-state link utilization
// must therefore be exactly zero — the old whole-run accounting divided
// warmup busy time by end_ms and reported inflated utilization here.
TEST(NetIntegration, StreamLinkMetricsClipToObservationWindow) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const sim::System system = make_system("bus", 1.0, 0.05);
  const sim::LutCostModel cost(table, system);
  dag::Dag single;
  single.add_node(
      dag::Node{pool.items[0].kernel, pool.items[0].sizes.front()});

  const auto run = [&](std::vector<double> arrivals, double warmup_ms) {
    stream::StreamOptions options;
    options.arrivals = stream::ArrivalSpec::trace(std::move(arrivals));
    options.warmup_ms = warmup_ms;
    stream::StreamEngine engine(
        system, cost,
        [&](std::size_t index) {
          return index < 3 ? scenario::generate("layered", 24, 40 + index,
                                                pool)
                           : single;
        },
        options);
    auto policy = core::make_policy("apt:4");
    return engine.run(*policy);
  };

  // Probe: the three comm-heavy apps alone, whole run observed. This is
  // the traffic the old whole-run accounting leaked into every window.
  const stream::StreamOutcome biased = run({0.0, 1.0, 2.0}, 0.0);
  ASSERT_FALSE(biased.metrics.per_link.empty());
  EXPECT_GT(biased.metrics.per_link[0].busy_ms, 0.0);
  EXPECT_GT(biased.metrics.per_link[0].bytes, 0.0);
  EXPECT_GT(biased.metrics.per_link[0].utilization, 0.0);
  const double all_done = biased.metrics.end_ms;

  // Same comm apps, but the warmup boundary sits after their last byte and
  // a compute-only app keeps the run alive beyond it.
  const stream::StreamOutcome clipped =
      run({0.0, 1.0, 2.0, all_done + 1000.0}, all_done + 500.0);
  ASSERT_FALSE(clipped.metrics.per_link.empty());
  EXPECT_GE(clipped.metrics.end_ms, all_done + 1000.0);
  // ...but none of it belongs to the observation window: whole-run
  // accounting (the old bias) would have reported the busy fraction above.
  EXPECT_DOUBLE_EQ(clipped.metrics.per_link[0].busy_ms, 0.0);
  EXPECT_DOUBLE_EQ(clipped.metrics.per_link[0].bytes, 0.0);
  EXPECT_DOUBLE_EQ(clipped.metrics.per_link[0].utilization, 0.0);
  EXPECT_EQ(clipped.metrics.per_link[0].transfer_count, 0u);
}

// --- slot reuse on a contended fabric ----------------------------------------

// Instances arrive far apart, so each runs alone and every one after the
// first reuses the slots of the one before. AG queues kernels behind each
// other, so a queued kernel's inputs often land before it holds its
// processor. Instance k must schedule exactly as in a stream where it is
// the only non-empty arrival and its slots are fresh.
TEST(NetIntegration, RecycledSlotsStartWithFreshCommState) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const sim::System system = make_system("mesh:2x2", 1.0, 0.05);
  const sim::LutCostModel cost(table, system);
  constexpr std::size_t kApps = 12;
  constexpr double kGapMs = 1e6;
  std::vector<double> instants;
  for (std::size_t i = 0; i < kApps; ++i)
    instants.push_back(kGapMs * static_cast<double>(i));
  const auto graph = [&](std::size_t index) {
    return scenario::generate("layered", 24, 60 + index, pool);
  };
  const auto run = [&](const stream::DagSource& source) {
    stream::StreamOptions options;
    options.arrivals = stream::ArrivalSpec::trace(instants);
    options.record_schedules = true;
    stream::StreamEngine engine(system, cost, source, options);
    auto policy = core::make_policy("ag");
    return engine.run(*policy);
  };
  const stream::StreamOutcome all = run(graph);
  ASSERT_EQ(all.schedules.size(), kApps);

  for (std::size_t k = 0; k < kApps; ++k) {
    const sim::SimResult& got = all.schedules[k].result;
    // Precondition: instance k retired before the next one arrived.
    ASSERT_LT(got.makespan, kGapMs * static_cast<double>(k + 1)) << k;
    const stream::DagSource only_k = [&](std::size_t index) {
      return index == k ? graph(index) : dag::Dag{};
    };
    const stream::StreamOutcome alone = run(only_k);
    ASSERT_EQ(alone.schedules.size(), kApps);
    const sim::SimResult& want = alone.schedules[k].result;
    ASSERT_EQ(got.schedule.size(), want.schedule.size()) << k;
    for (dag::NodeId n = 0; n < want.schedule.size(); ++n) {
      EXPECT_EQ(got.schedule[n].proc, want.schedule[n].proc) << k;
      EXPECT_EQ(got.schedule[n].exec_start, want.schedule[n].exec_start)
          << k << " node " << n;
      EXPECT_EQ(got.schedule[n].finish_time, want.schedule[n].finish_time)
          << k << " node " << n;
    }
    ASSERT_EQ(got.transfers.size(), want.transfers.size()) << k;
  }
}

}  // namespace
}  // namespace apt
