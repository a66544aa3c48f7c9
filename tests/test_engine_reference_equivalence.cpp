// sim::Engine, a closed-mode run of the stream engine's event core, against
// the closed engine it replaced (reference_closed_engine.hpp). Every
// schedule record, fabric message, hedge, and makespan must match bit for
// bit, and with a trace sink and a profile attached so must the rendered
// trace, every counter but the ready-set maintenance pair and the
// TransferManager's three work counters, and every timer's sample count,
// over the grid
//
//   policies    every policy_registry() head, plus ag:recent (the one
//               reader of the execution history)
//   topologies  ideal, bus, ring:6, mesh:2x2 on the paper's platform
//   noise       off everywhere, plus noise with hedging on ideal
//   inputs      paper Type-1/Type-2 graphs, most with release offsets on
//               their entry kernels, plus the empty DAG.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "net/topology.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"
#include "reference_closed_engine.hpp"
#include "sim/engine.hpp"

namespace apt {
namespace {

std::vector<std::string> policy_specs() {
  std::vector<std::string> specs;
  for (const core::PolicyInfo& info : core::policy_registry())
    specs.push_back(info.head);
  specs.push_back("ag:recent");
  return specs;
}

/// The paper's CPU + GPU + FPGA platform; contended kinds get 1 GB/s links
/// with 0.05 ms latency so messages queue behind each other.
sim::System paper_platform(const std::string& topology) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.topology = net::parse_topology_spec(topology);
  if (cfg.topology.kind != net::TopologyKind::Ideal) {
    cfg.topology.bandwidth_gbps = 1.0;
    cfg.topology.latency_ms = 0.05;
  }
  return sim::System(cfg);
}

/// Paper graphs of both types at three sizes, all but the first of each
/// type with Poisson release offsets, then the empty DAG.
std::vector<dag::Dag> workload() {
  std::vector<dag::Dag> graphs;
  for (const dag::DfgType type : {dag::DfgType::Type1, dag::DfgType::Type2}) {
    for (const std::size_t i : {0, 4, 9}) {
      dag::Dag graph = dag::paper_graph(type, i);
      if (i > 0) dag::apply_poisson_arrivals(graph, 4.0, 200 + i);
      graphs.push_back(std::move(graph));
    }
  }
  graphs.emplace_back();
  return graphs;
}

sim::NoiseSpec noisy() {
  sim::NoiseSpec noise;
  noise.sigma = 0.3;
  noise.heavy_tail_prob = 0.05;
  noise.seed = 23;
  return noise;
}

sim::HedgeSpec hedged() {
  sim::HedgeSpec hedging;
  hedging.enabled = true;
  hedging.min_samples = 4;
  return hedging;
}

// --- bitwise comparisons -----------------------------------------------------

bool same(const sim::ScheduledKernel& a, const sim::ScheduledKernel& b) {
  return a.node == b.node && a.proc == b.proc &&
         a.ready_time == b.ready_time && a.assign_time == b.assign_time &&
         a.exec_start == b.exec_start && a.exec_ms == b.exec_ms &&
         a.finish_time == b.finish_time && a.transfer_ms == b.transfer_ms &&
         a.alternative == b.alternative && a.noise_mult == b.noise_mult;
}

bool same(const sim::TransferRecord& a, const sim::TransferRecord& b) {
  return a.src == b.src && a.dst == b.dst && a.from == b.from &&
         a.to == b.to && a.path == b.path && a.bytes == b.bytes &&
         a.start == b.start && a.drain_start == b.drain_start &&
         a.finish == b.finish;
}

bool same(const sim::HedgeRecord& a, const sim::HedgeRecord& b) {
  return a.node == b.node && a.primary_proc == b.primary_proc &&
         a.replica_proc == b.replica_proc && a.launched_ms == b.launched_ms &&
         a.loser_start_ms == b.loser_start_ms &&
         a.winner_finish_ms == b.winner_finish_ms &&
         a.cancelled_ms == b.cancelled_ms && a.replica_won == b.replica_won;
}

void expect_same(const sim::SimResult& a, const sim::SimResult& b,
                 const std::string& where) {
  EXPECT_EQ(a.makespan, b.makespan) << where;
  ASSERT_EQ(a.schedule.size(), b.schedule.size()) << where;
  for (std::size_t n = 0; n < a.schedule.size(); ++n)
    ASSERT_TRUE(same(a.schedule[n], b.schedule[n])) << where << " node " << n;
  ASSERT_EQ(a.transfers.size(), b.transfers.size()) << where;
  for (std::size_t i = 0; i < a.transfers.size(); ++i)
    ASSERT_TRUE(same(a.transfers[i], b.transfers[i]))
        << where << " transfer " << i;
  ASSERT_EQ(a.hedges.size(), b.hedges.size()) << where;
  for (std::size_t i = 0; i < a.hedges.size(); ++i)
    ASSERT_TRUE(same(a.hedges[i], b.hedges[i])) << where << " hedge " << i;
}

/// Counters in full, except the two that count ready-set maintenance the
/// frozen engine never did and the filling-loop link count, delivery heap
/// pops and link-drain reads its frozen TransferManager never kept; timers
/// by sample count (their totals are wall clock).
void expect_same(const obs::Profile& a, const obs::Profile& b,
                 const std::string& where) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Counter::kCount);
       ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    if (counter == obs::Counter::kReadyCompactions ||
        counter == obs::Counter::kReadyEntriesMoved ||
        counter == obs::Counter::kTmLinksScanned ||
        counter == obs::Counter::kTmProjectionsPopped ||
        counter == obs::Counter::kTmDrainReads)
      continue;
    EXPECT_EQ(a.count(counter), b.count(counter))
        << where << " counter " << obs::to_string(counter);
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Timer::kCount);
       ++i) {
    const auto timer = static_cast<obs::Timer>(i);
    EXPECT_EQ(a.timer_count(timer), b.timer_count(timer))
        << where << " timer " << obs::to_string(timer);
  }
}

std::string render(const obs::ChromeTraceWriter& writer) {
  std::ostringstream out;
  writer.write(out);
  return out.str();
}

// --- the grid ----------------------------------------------------------------

struct Totals {
  std::size_t transfers = 0;
  std::size_t hedges = 0;
  std::size_t alternatives = 0;
};

/// Runs every policy over every graph through both engines, bare and
/// observed, and returns what the grid exercised.
Totals check(const std::string& topology, sim::EngineOptions options) {
  const sim::System system = paper_platform(topology);
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const std::vector<dag::Dag> graphs = workload();
  Totals totals;
  for (const std::string& spec : policy_specs()) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const std::string where =
          topology + "/" + spec + "/graph " + std::to_string(g);
      // Fresh policies for every run: some carry state across runs.
      const auto run_shipped = [&](const sim::EngineOptions& o) {
        return sim::Engine(graphs[g], system, cost, o)
            .run(*core::make_policy(spec));
      };
      const auto run_frozen = [&](const sim::EngineOptions& o) {
        return test::ReferenceClosedEngine(graphs[g], system, cost, o)
            .run(*core::make_policy(spec));
      };
      const sim::SimResult a = run_shipped(options);
      expect_same(a, run_frozen(options), where);

      obs::ChromeTraceWriter sink_a{system};
      obs::ChromeTraceWriter sink_b{system};
      obs::Profile profile_a;
      obs::Profile profile_b;
      sim::EngineOptions observed_a = options;
      observed_a.sink = &sink_a;
      observed_a.profile = &profile_a;
      sim::EngineOptions observed_b = options;
      observed_b.sink = &sink_b;
      observed_b.profile = &profile_b;
      const sim::SimResult oa = run_shipped(observed_a);
      expect_same(oa, a, where + " observed");
      expect_same(oa, run_frozen(observed_b), where + " observed");
      EXPECT_EQ(render(sink_a), render(sink_b)) << where;
      expect_same(profile_a, profile_b, where);

      totals.transfers += a.transfers.size();
      totals.hedges += a.hedges.size();
      for (const sim::ScheduledKernel& k : a.schedule)
        totals.alternatives += k.alternative ? 1 : 0;
    }
  }
  return totals;
}

TEST(EngineReferenceEquivalence, IdealTopology) {
  const Totals t = check("ideal", {});
  EXPECT_GT(t.alternatives, 0u);  // APT's alternative branch ran
}

TEST(EngineReferenceEquivalence, BusTopology) {
  EXPECT_GT(check("bus", {}).transfers, 0u);
}

TEST(EngineReferenceEquivalence, RingTopology) {
  EXPECT_GT(check("ring:6", {}).transfers, 0u);
}

TEST(EngineReferenceEquivalence, MeshTopology) {
  EXPECT_GT(check("mesh:2x2", {}).transfers, 0u);
}

TEST(EngineReferenceEquivalence, NoiseWithHedgingOnIdeal) {
  sim::EngineOptions options;
  options.noise = noisy();
  options.hedging = hedged();
  EXPECT_GT(check("ideal", options).hedges, 0u);  // races were run
}

}  // namespace
}  // namespace apt
