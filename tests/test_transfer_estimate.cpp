// Tests of the structured policy↔fabric estimation contract
// (sim/transfer_estimate.hpp):
//
//  * the deprecated input_transfer_ms wrapper and TransferEstimate::stall_ms
//    are bit-identical at every decision instant the engine offers a policy
//    — the API redesign changed the shape of the contract, not its values;
//  * stall_ms matches a hand replication of the cost-model scan over the
//    scheduled predecessors (the TopologyCostModel convention cross-check);
//  * ideal topologies report no queueing and no bottleneck link; contended
//    ones pin the estimate to a real link and, on an idle fabric, to the
//    route's minimum-bandwidth hop;
//  * quantile_ms widens only the queueing component, and degenerates to
//    total_ms when noise is off;
//  * the row queries (transfer_stalls, transfer_estimates) equal the
//    scalar for every ready kernel and processor at every pass, bit for bit
//    in every field, in open and closed runs on every fabric kind;
//  * the comm-aware variants collapse onto their comm-blind counterparts
//    exactly when the extra signal is flat: AG-net == AG and APT-C == APT
//    on ideal fabrics, APT-Q == APT-C when noise is off.
#include "sim/transfer_estimate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_factory.hpp"
#include "core/stream_plan.hpp"
#include "lut/synthetic.hpp"
#include "net/topology.hpp"
#include "reference_pricing.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "stream/stream_engine.hpp"

namespace apt {
namespace {

sim::System make_system(const std::string& topology, double bandwidth_gbps,
                        double latency_ms = 0.0) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default(4.0);
  cfg.topology = net::parse_topology_spec(topology);
  cfg.topology.bandwidth_gbps = bandwidth_gbps;
  cfg.topology.latency_ms = latency_ms;
  return sim::System(cfg);
}

lut::LookupTable test_table() {
  lut::SyntheticLutSpec spec;
  spec.ccr = 1.0;
  spec.heterogeneity = 4.0;
  spec.seed = 0xBEEF;
  return lut::synthetic_lookup_table(spec);
}

/// A policy that interrogates transfer_estimate for every (ready kernel,
/// processor) pair at every event, cross-checks it against the legacy
/// wrapper, its own placement records, and the topology conventions — then
/// schedules greedily so the run makes progress through many fabric states.
class ProbePolicy : public sim::Policy {
 public:
  std::string name() const override { return "probe"; }
  bool is_dynamic() const override { return true; }

  void prepare(const dag::Dag&, const sim::System&,
               const sim::CostModel&) override {
    placement_.clear();
    backlogged_estimates_ = 0;
    estimates_checked_ = 0;
  }

  void on_event(sim::SchedulerContext& ctx) override {
    const net::Topology& topo = ctx.system().topology();
    const std::vector<dag::NodeId> ready = ctx.ready();  // snapshot
    for (const dag::NodeId node : ready) {
      for (sim::ProcId p = 0; p < ctx.system().proc_count(); ++p) {
        const sim::TransferEstimate est = ctx.transfer_estimate(node, p);
        ++estimates_checked_;

        // The deprecated scalar is the stall reading, bit for bit.
        EXPECT_EQ(ctx.input_transfer_ms(node, p), est.stall_ms);

        // Replicate the engine's predecessor scan from our own placement
        // records: worst (max) edge at the policy-visible cost model's
        // reference price, first maximum winning ties.
        sim::TimeMs expected_stall = 0.0;
        sim::ProcId worst_from = p;
        for (const dag::NodeId pred : ctx.dag().predecessors(node)) {
          const auto it = placement_.find(pred);
          ASSERT_NE(it, placement_.end()) << "ready node with unplaced pred";
          const sim::TimeMs edge = test::reference_transfer_ms(
              ctx.cost_model(), ctx.system(), ctx.dag(), pred, node,
              ctx.system().processor(it->second), ctx.system().processor(p));
          if (edge > expected_stall) {
            expected_stall = edge;
            worst_from = it->second;
          }
        }
        EXPECT_EQ(est.stall_ms, expected_stall);

        EXPECT_GE(est.link_queueing_ms, 0.0);
        if (!topo.contended()) {
          EXPECT_EQ(est.link_queueing_ms, 0.0);
          EXPECT_EQ(est.bottleneck_link, net::kNoLink);
        } else if (est.link_queueing_ms > 0.0) {
          ++backlogged_estimates_;
          ASSERT_NE(est.bottleneck_link, net::kNoLink);
          EXPECT_LT(est.bottleneck_link, topo.link_count());
        } else if (worst_from != p && est.stall_ms > 0.0) {
          // Idle fabric, remote worst input: pinned to the route's
          // bottleneck (minimum-bandwidth, earliest on ties) hop.
          EXPECT_EQ(est.bottleneck_link, topo.bottleneck_link(worst_from, p));
        }

        // quantile_ms: noise off -> exactly the backlog-aware total.
        EXPECT_EQ(est.quantile_ms(0.95), est.total_ms());
      }
    }
    // Greedy FIFO so the run terminates: cheapest total estimate among
    // idle processors, else shortest committed queue.
    for (const dag::NodeId node : ready) {
      sim::ProcId best = 0;
      sim::TimeMs best_cost = std::numeric_limits<sim::TimeMs>::infinity();
      for (sim::ProcId p = 0; p < ctx.system().proc_count(); ++p) {
        const sim::TimeMs cost = ctx.queued_work_ms(p) +
                                 ctx.exec_time_ms(node, p) +
                                 ctx.transfer_estimate(node, p).total_ms();
        if (cost < best_cost) {
          best_cost = cost;
          best = p;
        }
      }
      ctx.enqueue(node, best);
      placement_[node] = best;
    }
  }

  std::size_t backlogged_estimates() const { return backlogged_estimates_; }
  std::size_t estimates_checked() const { return estimates_checked_; }

 private:
  std::map<dag::NodeId, sim::ProcId> placement_;
  std::size_t backlogged_estimates_ = 0;
  std::size_t estimates_checked_ = 0;
};

TEST(TransferEstimate, EngineContractHoldsOnRoutedTopology) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const sim::System system = make_system("ring:5", 1.0, 0.05);
  const sim::LutCostModel cost(table, system);
  ProbePolicy probe;
  std::size_t backlogged = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const dag::Dag graph = scenario::generate("layered", 24, seed, pool);
    sim::Engine(graph, system, cost).run(probe);
    backlogged += probe.backlogged_estimates();
    EXPECT_GT(probe.estimates_checked(), 0u);
  }
  // The scenario genuinely exercised the backlog path: estimates were
  // issued while traffic was in flight.
  EXPECT_GT(backlogged, 0u);
}

TEST(TransferEstimate, EngineContractHoldsOnIdealTopology) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const sim::System system = make_system("ideal", 0.0);
  const sim::LutCostModel cost(table, system);
  const dag::Dag graph = scenario::generate("forkjoin", 24, 3, pool);
  ProbePolicy probe;
  sim::Engine(graph, system, cost).run(probe);
  EXPECT_GT(probe.estimates_checked(), 0u);
  EXPECT_EQ(probe.backlogged_estimates(), 0u);
}

// --- row queries against the scalar ------------------------------------------

std::uint64_t bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

bool same_bits(const sim::TransferEstimate& a, const sim::TransferEstimate& b) {
  return bits(a.stall_ms) == bits(b.stall_ms) &&
         bits(a.link_queueing_ms) == bits(b.link_queueing_ms) &&
         a.bottleneck_link == b.bottleneck_link &&
         bits(a.noise.sigma) == bits(b.noise.sigma) &&
         bits(a.noise.heavy_tail_prob) == bits(b.noise.heavy_tail_prob) &&
         bits(a.noise.heavy_tail_multiplier) ==
             bits(b.noise.heavy_tail_multiplier) &&
         a.noise.seed == b.noise.seed;
}

/// At every pass, asks both row queries for every ready kernel and checks
/// each entry against transfer_estimate(node, p); then `inner` schedules,
/// so the run moves through the fabric states a real policy produces.
class RowProbe final : public sim::Policy {
 public:
  explicit RowProbe(std::unique_ptr<sim::Policy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return "row-probe"; }
  bool is_dynamic() const override { return true; }
  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost) override {
    inner_->prepare(dag, system, cost);
  }

  void on_event(sim::SchedulerContext& ctx) override {
    const std::size_t procs = ctx.system().proc_count();
    stalls_.resize(procs);
    rows_.resize(procs);
    for (const dag::NodeId node : ctx.ready()) {
      ctx.transfer_stalls(node, stalls_.data());
      ctx.transfer_estimates(node, rows_.data());
      for (sim::ProcId p = 0; p < procs; ++p) {
        const sim::TransferEstimate est = ctx.transfer_estimate(node, p);
        ++checked_;
        if (est.link_queueing_ms > 0.0) ++backlogged_;
        if (bits(stalls_[p]) == bits(est.stall_ms) && same_bits(rows_[p], est))
          continue;
        if (mismatches_++ == 0)
          first_mismatch_ = "node " + std::to_string(node) + " proc " +
                            std::to_string(p) + " at t=" +
                            std::to_string(ctx.now());
      }
    }
    inner_->on_event(ctx);
  }

  std::size_t checked() const { return checked_; }
  std::size_t backlogged() const { return backlogged_; }
  std::size_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  std::unique_ptr<sim::Policy> inner_;
  std::vector<sim::TimeMs> stalls_;
  std::vector<sim::TransferEstimate> rows_;
  std::size_t checked_ = 0;
  std::size_t backlogged_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
};

/// The paper's three processor types repeated over six processors (twelve
/// for the 3x4 mesh, which fits them exactly), 1 GB/s links.
sim::System row_system(const std::string& topology) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default(1.0);
  const std::size_t count = topology == "mesh:3x4" ? 12 : 6;
  const lut::ProcType types[] = {lut::ProcType::CPU, lut::ProcType::GPU,
                                 lut::ProcType::FPGA};
  cfg.processors.clear();
  for (std::size_t i = 0; i < count; ++i)
    cfg.processors.push_back(types[i % 3]);
  cfg.topology = net::parse_topology_spec(topology);
  cfg.topology.bandwidth_gbps = 1.0;
  cfg.topology.latency_ms = 0.05;
  return sim::System(cfg);
}

TEST(TransferEstimate, RowQueriesMatchTheScalarAtEveryPass) {
  const lut::LookupTable table = test_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  const dag::Dag graph = scenario::generate("layered", 24, 5, pool);
  const stream::DagSource apps = [&pool](std::size_t k) {
    return scenario::generate("layered", 24, 100 + k, pool);
  };
  sim::NoiseSpec noisy;
  noisy.sigma = 0.3;
  noisy.heavy_tail_prob = 0.05;
  noisy.seed = 17;
  for (const std::string topology :
       {"ideal", "bus", "crossbar", "hier:2", "ring:6", "mesh:3x4",
        "fattree:2"}) {
    const sim::System system = row_system(topology);
    const sim::LutCostModel cost(table, system);
    std::size_t checked = 0;
    std::size_t backlogged = 0;
    for (const bool noise_on : {false, true}) {
      const sim::NoiseSpec noise = noise_on ? noisy : sim::NoiseSpec{};
      for (const std::string spec : {"ag-net", "apt-c:4"}) {
        sim::EngineOptions closed;
        closed.noise = noise;
        stream::StreamOptions open;
        open.arrivals = stream::ArrivalSpec::poisson(0.02, 7);
        open.max_apps = 12;
        open.noise = noise;
        RowProbe in_closed(core::make_policy(spec));
        RowProbe in_open(core::make_policy(spec));
        sim::Engine(graph, system, cost, closed).run(in_closed);
        stream::StreamEngine(system, cost, apps, open).run(in_open);
        for (const RowProbe* probe : {&in_closed, &in_open}) {
          EXPECT_EQ(probe->mismatches(), 0u)
              << topology << " " << spec << (noise_on ? " noise" : "")
              << (probe == &in_open ? " open" : " closed")
              << ": first at " << probe->first_mismatch();
          checked += probe->checked();
          backlogged += probe->backlogged();
        }
      }
    }
    EXPECT_GT(checked, 0u) << topology;
    // Every contended fabric priced some kernel against live backlog.
    if (system.topology().contended()) {
      EXPECT_GT(backlogged, 0u) << topology;
    }
  }
}

// --- the struct's own arithmetic ---------------------------------------------

TEST(TransferEstimate, QuantileWidensOnlyTheQueueingComponent) {
  sim::TransferEstimate est;
  est.stall_ms = 10.0;
  est.link_queueing_ms = 4.0;
  est.noise.sigma = 0.25;  // enabled lognormal, no heavy tail
  EXPECT_DOUBLE_EQ(est.total_ms(), 14.0);
  const double mult = sim::noise_quantile_multiplier(est.noise, 0.95);
  ASSERT_GT(mult, 1.0);
  EXPECT_DOUBLE_EQ(est.quantile_ms(0.95), 10.0 + 4.0 * mult);
  // The deterministic stall never widens.
  est.link_queueing_ms = 0.0;
  EXPECT_DOUBLE_EQ(est.quantile_ms(0.99), 10.0);
}

TEST(TransferEstimate, QuantileIsTotalWhenNoiseIsOff) {
  sim::TransferEstimate est;
  est.stall_ms = 3.0;
  est.link_queueing_ms = 2.0;
  EXPECT_EQ(est.quantile_ms(0.5), est.total_ms());
  EXPECT_EQ(est.quantile_ms(0.99), est.total_ms());
}

// --- comm-aware variants collapse when their signal is flat ------------------

core::StreamPlan variant_plan(const std::string& topology,
                              std::vector<std::string> specs) {
  core::StreamPlan plan;
  plan.families = {"layered"};
  plan.rates_per_ms = {0.02};
  plan.policy_specs = std::move(specs);
  plan.kernels = 24;
  plan.max_apps = 30;
  plan.horizon_ms = 0.0;
  plan.warmup_ms = 0.0;
  plan.base_seed = 7;
  plan.base_system = sim::SystemConfig::paper_default(1.0);
  plan.base_system.topology = net::parse_topology_spec(topology);
  return plan;
}

void expect_cells_identical(const core::StreamCellResult& a,
                            const core::StreamCellResult& b) {
  // Bitwise double equality — the runs must be indistinguishable.
  EXPECT_EQ(a.metrics.apps_completed, b.metrics.apps_completed);
  EXPECT_EQ(a.metrics.end_ms, b.metrics.end_ms);
  EXPECT_EQ(a.metrics.flow_ms.avg, b.metrics.flow_ms.avg);
  EXPECT_EQ(a.metrics.flow_ms.max, b.metrics.flow_ms.max);
  EXPECT_EQ(a.metrics.slowdown.avg, b.metrics.slowdown.avg);
  EXPECT_EQ(a.metrics.avg_utilization, b.metrics.avg_utilization);
}

TEST(TransferEstimate, CommAwareVariantsMatchBlindOnesOnIdealFabric) {
  // No links -> no backlog signal -> AG-net == AG and APT-C == APT.
  const core::StreamPlan plan =
      variant_plan("ideal", {"ag", "ag-net", "apt:4", "apt-c:4"});
  const core::BatchRunner runner(1);
  const core::StreamBatchResult r = core::run_stream_plan(plan, runner);
  ASSERT_EQ(r.cells.size(), 4u);
  expect_cells_identical(r.cells[0], r.cells[1]);
  expect_cells_identical(r.cells[2], r.cells[3]);
}

TEST(TransferEstimate, AptQMatchesAptCWhenNoiseIsOff) {
  // Quantile multiplier is exactly 1 with noise disabled, and exec * 1.0
  // is IEEE-identical to exec — APT-Q degenerates to APT-C bit for bit
  // even on a contended routed fabric.
  core::StreamPlan plan = variant_plan("ring", {"apt-c:4", "apt-q:4"});
  plan.base_system.topology.latency_ms = 0.05;
  const core::BatchRunner runner(1);
  const core::StreamBatchResult r = core::run_stream_plan(plan, runner);
  ASSERT_EQ(r.cells.size(), 2u);
  expect_cells_identical(r.cells[0], r.cells[1]);
}

TEST(TransferEstimate, CommAwareVariantsDivergeUnderContention) {
  // On a loaded routed fabric the backlog signal is real: the comm-aware
  // ranks must differ from the comm-blind ones somewhere in the run.
  const core::StreamPlan plan = variant_plan("ring", {"ag", "ag-net"});
  const core::BatchRunner runner(1);
  const core::StreamBatchResult r = core::run_stream_plan(plan, runner);
  ASSERT_EQ(r.cells.size(), 2u);
  EXPECT_NE(r.cells[0].metrics.flow_ms.avg, r.cells[1].metrics.flow_ms.avg);
}

}  // namespace
}  // namespace apt
