// The indexed MET/APT/APT-Ranked dispatch (policies::ReadyIndex) against
// the scans it replaced, and AG's row-priced pass against its scalar-priced
// one (reference_scan_policies.hpp). Every schedule record, fabric message,
// hedge, and stream metric must match bit for bit, over the grid
//
//   policies    met, apt:1, apt:4, apt:1e6, apt-c, apt-q, apt-r, and APT
//               without transfer pricing; ag, ag-net, ag:recent and
//               ag-net:recent; apt-ranked:1, apt-ranked:4 and
//               apt-ranked:1e6 in the closed engine only (it plans from
//               the whole DAG, so the stream engine rejects it)
//   topologies  ideal, ring:6, mesh:2x3 (six processors, 1 GB/s links)
//   noise       off everywhere, plus noise with hedging on the ideal one,
//               and noise without hedging on ring:6 (closed) and mesh:2x3
//               (stream) for apt-c, apt-q and ag-net, where link queueing
//               is priced and APT-Q widens it by its tail multiplier
//   engines     sim::Engine on paper graphs with release offsets, and a
//               saturated StreamEngine burst long enough to reuse retired
//               slot ranges.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/apt.hpp"
#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "net/topology.hpp"
#include "policies/ready_index.hpp"
#include "reference_scan_policies.hpp"
#include "sim/engine.hpp"
#include "stream/stream_engine.hpp"

namespace apt {
namespace {

/// One policy of the grid: the shipped, indexed policy and the reference
/// scan configured the same way.
struct Variant {
  std::string label;
  std::function<std::unique_ptr<sim::Policy>()> indexed;
  std::function<std::unique_ptr<sim::Policy>()> reference;
  /// False for AG, which queues every ready kernel at once, so a burst
  /// waits in the processor queues instead of the ready set.
  bool fills_ready_set = true;
};

core::AptOptions apt_options(double alpha) {
  core::AptOptions options;
  options.alpha = alpha;
  return options;
}

/// The grid's policies; `closed` adds the ones only a closed run accepts.
std::vector<Variant> variants(bool closed) {
  const auto registered = [](const std::string& spec,
                             const core::AptOptions& options) {
    return Variant{spec, [spec] { return core::make_policy(spec); },
                   [options] {
                     return std::make_unique<test::ReferenceApt>(options);
                   }};
  };
  core::AptOptions comm = apt_options(4.0);
  comm.comm_aware = true;
  core::AptOptions quantile = comm;
  quantile.rank_quantile = 0.95;  // the registry's APT-Q quantile
  core::AptOptions remaining = apt_options(4.0);
  remaining.consider_remaining_time = true;
  core::AptOptions blind = apt_options(4.0);
  blind.transfer_aware = false;

  std::vector<Variant> grid;
  grid.push_back({"met", [] { return core::make_policy("met"); },
                  [] { return std::make_unique<test::ReferenceMet>(); }});
  grid.push_back(registered("apt:1", apt_options(1.0)));
  grid.push_back(registered("apt:4", apt_options(4.0)));
  grid.push_back(registered("apt:1e6", apt_options(1e6)));
  grid.push_back(registered("apt-c", comm));
  grid.push_back(registered("apt-q", quantile));
  grid.push_back(registered("apt-r", remaining));
  grid.push_back({"apt:4[no-transfer]",
                  [blind] { return std::make_unique<core::Apt>(blind); },
                  [blind] {
                    return std::make_unique<test::ReferenceApt>(blind);
                  }});
  for (const bool comm_aware : {false, true}) {
    for (const bool recent : {false, true}) {
      policies::AgOptions options;
      options.comm_aware = comm_aware;
      if (recent) options.estimate = policies::AgQueueEstimate::RecentAverage;
      const std::string spec = std::string(comm_aware ? "ag-net" : "ag") +
                               (recent ? ":recent" : "");
      grid.push_back({spec, [spec] { return core::make_policy(spec); },
                      [options] {
                        return std::make_unique<test::ReferenceAg>(options);
                      },
                      /*fills_ready_set=*/false});
    }
  }
  if (!closed) return grid;
  const std::pair<std::string, double> ranked[] = {
      {"apt-ranked:1", 1.0}, {"apt-ranked:4", 4.0}, {"apt-ranked:1e6", 1e6}};
  for (const auto& [spec, alpha] : ranked) {
    grid.push_back({spec, [spec = spec] { return core::make_policy(spec); },
                    [alpha = alpha] {
                      return std::make_unique<test::ReferenceAptRanked>(alpha);
                    }});
  }
  return grid;
}

/// The policies that price link queueing (APT-C, APT-Q and AG-net).
const std::vector<std::string> kCommAware = {"apt-c", "apt-q", "ag-net"};

/// Whether a grid cell restricted to the labels in `only` (every policy
/// when empty) runs `v`.
bool runs(const std::vector<std::string>& only, const Variant& v) {
  return only.empty() ||
         std::find(only.begin(), only.end(), v.label) != only.end();
}

/// Two of each paper processor type, so every kernel has two optimal
/// processors and the six-node ring and 2x3 mesh fit exactly.
sim::System six_proc_system(const std::string& topology) {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.processors.clear();
  for (int copy = 0; copy < 2; ++copy) {
    for (const lut::ProcType type :
         {lut::ProcType::CPU, lut::ProcType::GPU, lut::ProcType::FPGA})
      cfg.processors.push_back(type);
  }
  cfg.topology = net::parse_topology_spec(topology);
  if (cfg.topology.kind != net::TopologyKind::Ideal) {
    cfg.topology.bandwidth_gbps = 1.0;
    cfg.topology.latency_ms = 0.05;
  }
  return sim::System(cfg);
}

sim::NoiseSpec noisy() {
  sim::NoiseSpec noise;
  noise.sigma = 0.3;
  noise.heavy_tail_prob = 0.05;
  noise.seed = 17;
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

void expect_same(const sim::DistSummary& a, const sim::DistSummary& b,
                 const std::string& where) {
  EXPECT_EQ(a.avg, b.avg) << where;
  EXPECT_EQ(a.p50, b.p50) << where;
  EXPECT_EQ(a.p95, b.p95) << where;
  EXPECT_EQ(a.p99, b.p99) << where;
  EXPECT_EQ(a.max, b.max) << where;
}

void expect_same(const sim::StreamMetrics& a, const sim::StreamMetrics& b,
                 const std::string& where) {
  EXPECT_EQ(a.apps_arrived, b.apps_arrived) << where;
  EXPECT_EQ(a.apps_completed, b.apps_completed) << where;
  EXPECT_EQ(a.apps_measured, b.apps_measured) << where;
  EXPECT_EQ(a.kernels_completed, b.kernels_completed) << where;
  EXPECT_EQ(a.end_ms, b.end_ms) << where;
  EXPECT_EQ(a.observed_ms, b.observed_ms) << where;
  EXPECT_EQ(a.throughput_apps_per_s, b.throughput_apps_per_s) << where;
  expect_same(a.flow_ms, b.flow_ms, where + " flow");
  expect_same(a.slowdown, b.slowdown, where + " slowdown");
  ASSERT_EQ(a.per_proc.size(), b.per_proc.size()) << where;
  for (std::size_t p = 0; p < a.per_proc.size(); ++p) {
    EXPECT_EQ(a.per_proc[p].compute_ms, b.per_proc[p].compute_ms) << where;
    EXPECT_EQ(a.per_proc[p].transfer_ms, b.per_proc[p].transfer_ms) << where;
    EXPECT_EQ(a.per_proc[p].idle_ms, b.per_proc[p].idle_ms) << where;
    EXPECT_EQ(a.per_proc[p].energy_j, b.per_proc[p].energy_j) << where;
    EXPECT_EQ(a.per_proc[p].kernel_count, b.per_proc[p].kernel_count)
        << where;
  }
  EXPECT_EQ(a.avg_utilization, b.avg_utilization) << where;
  EXPECT_EQ(a.queue_depth_avg, b.queue_depth_avg) << where;
  EXPECT_EQ(a.queue_depth_max, b.queue_depth_max) << where;
  EXPECT_EQ(a.live_apps_avg, b.live_apps_avg) << where;
  EXPECT_EQ(a.live_apps_max, b.live_apps_max) << where;
  EXPECT_EQ(a.queue_depth_samples, b.queue_depth_samples) << where;
  ASSERT_EQ(a.per_link.size(), b.per_link.size()) << where;
  for (std::size_t l = 0; l < a.per_link.size(); ++l) {
    EXPECT_EQ(a.per_link[l].busy_ms, b.per_link[l].busy_ms) << where;
    EXPECT_EQ(a.per_link[l].bytes, b.per_link[l].bytes) << where;
    EXPECT_EQ(a.per_link[l].utilization, b.per_link[l].utilization) << where;
    EXPECT_EQ(a.per_link[l].avg_hops, b.per_link[l].avg_hops) << where;
    EXPECT_EQ(a.per_link[l].transfer_count, b.per_link[l].transfer_count)
        << where;
  }
  EXPECT_EQ(a.tm_solve_stats.full_solves, b.tm_solve_stats.full_solves)
      << where;
  EXPECT_EQ(a.tm_solve_stats.incremental_solves,
            b.tm_solve_stats.incremental_solves)
      << where;
  EXPECT_EQ(a.hedges_launched, b.hedges_launched) << where;
  EXPECT_EQ(a.hedges_replica_won, b.hedges_replica_won) << where;
  EXPECT_EQ(a.hedge_wasted_ms, b.hedge_wasted_ms) << where;
}

void expect_same(const stream::StreamOutcome& a, const stream::StreamOutcome& b,
                 const std::string& where) {
  expect_same(a.metrics, b.metrics, where);
  ASSERT_EQ(a.schedules.size(), b.schedules.size()) << where;
  for (std::size_t i = 0; i < a.schedules.size(); ++i) {
    ASSERT_EQ(a.schedules[i].index, b.schedules[i].index) << where;
    EXPECT_EQ(a.schedules[i].arrival_ms, b.schedules[i].arrival_ms) << where;
    expect_same(a.schedules[i].result, b.schedules[i].result,
                where + " app " + std::to_string(a.schedules[i].index));
  }
}

// --- closed engine -----------------------------------------------------------

/// Paper graphs of both types at three sizes. All but the first of each
/// type get Poisson release offsets on their entry kernels, so kernels
/// also become ready between completions.
std::vector<dag::Dag> closed_workload() {
  std::vector<dag::Dag> graphs;
  for (const dag::DfgType type : {dag::DfgType::Type1, dag::DfgType::Type2}) {
    for (const std::size_t i : {0, 3, 6}) {
      dag::Dag graph = dag::paper_graph(type, i);
      if (i > 0) dag::apply_poisson_arrivals(graph, 4.0, 100 + i);
      graphs.push_back(std::move(graph));
    }
  }
  return graphs;
}

/// Runs the grid (the policies in `only`, or all) and returns the number
/// of hedges launched.
std::size_t check_closed(const std::string& topology,
                         const sim::EngineOptions& options,
                         const std::vector<std::string>& only = {}) {
  const sim::System system = six_proc_system(topology);
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const std::vector<dag::Dag> graphs = closed_workload();
  std::size_t alternatives = 0;
  std::size_t hedges = 0;
  for (const Variant& v : variants(/*closed=*/true)) {
    if (!runs(only, v)) continue;
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const std::string where =
          topology + "/" + v.label + "/graph " + std::to_string(g);
      const auto indexed = v.indexed();
      const auto reference = v.reference();
      const sim::SimResult a =
          sim::Engine(graphs[g], system, cost, options).run(*indexed);
      const sim::SimResult b =
          sim::Engine(graphs[g], system, cost, options).run(*reference);
      expect_same(a, b, where);
      for (const sim::ScheduledKernel& k : a.schedule)
        alternatives += k.alternative ? 1 : 0;
      hedges += a.hedges.size();
    }
  }
  // The grid genuinely exercises APT's alternative branch.
  EXPECT_GT(alternatives, 0u) << topology;
  return hedges;
}

TEST(ReadyIndexEquivalence, ClosedEngineIdeal) {
  check_closed("ideal", {});
}

TEST(ReadyIndexEquivalence, ClosedEngineRing) {
  check_closed("ring:6", {});
}

TEST(ReadyIndexEquivalence, ClosedEngineMesh) {
  check_closed("mesh:2x3", {});
}

TEST(ReadyIndexEquivalence, ClosedEngineNoiseAndHedging) {
  sim::EngineOptions options;
  options.noise = noisy();
  options.hedging = hedged();
  EXPECT_GT(check_closed("ideal", options), 0u);
}

TEST(ReadyIndexEquivalence, ClosedEngineNoiseOnContendedRing) {
  sim::EngineOptions options;
  options.noise = noisy();
  check_closed("ring:6", options, kCommAware);
}

// --- rejected visits -----------------------------------------------------------

/// A decision that declines kernels it is offered, so the index must set
/// them aside and file them again (APT-Ranked's filter is exact, so it
/// never does): every third kernel takes a processor only while at least
/// two are idle. It takes the lowest idle one.
bool picky_decide(sim::SchedulerContext& ctx, dag::NodeId node) {
  const std::vector<sim::ProcId>& idle = ctx.idle_processors();
  if (node % 3 == 0 && idle.size() < 2) return false;
  ctx.assign(node, idle.front());
  return true;
}

/// picky_decide over ReadyIndex, in FIFO or highest-upward-rank order.
class IndexedPicky final : public sim::Policy {
 public:
  explicit IndexedPicky(bool ranked) : ranked_(ranked) {}
  std::string name() const override { return "indexed-picky"; }
  bool is_dynamic() const override { return true; }
  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost) override {
    index_.reset(system.proc_count());
    rank_ = policies::reference::heft_upward_ranks(dag, system, cost);
  }
  void on_event(sim::SchedulerContext& ctx) override {
    const auto admits = [](dag::NodeId, sim::ProcId) { return true; };
    const auto decide = [&ctx](dag::NodeId n) { return picky_decide(ctx, n); };
    if (ranked_) {
      index_.pass(ctx, admits, decide,
                  [this](dag::NodeId n) { return rank_.at(n); });
    } else {
      index_.pass(ctx, admits, decide);
    }
  }

 private:
  bool ranked_;
  policies::ReadyIndex index_;
  std::vector<double> rank_;
};

/// picky_decide as a scan of the ready set, stable-sorted by rank when
/// `ranked`.
class ScannedPicky final : public sim::Policy {
 public:
  explicit ScannedPicky(bool ranked) : ranked_(ranked) {}
  std::string name() const override { return "scanned-picky"; }
  bool is_dynamic() const override { return true; }
  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost) override {
    rank_ = policies::reference::heft_upward_ranks(dag, system, cost);
  }
  void on_event(sim::SchedulerContext& ctx) override {
    std::vector<dag::NodeId> ready = ctx.ready();
    if (ranked_) {
      std::stable_sort(ready.begin(), ready.end(),
                       [this](dag::NodeId a, dag::NodeId b) {
                         return rank_.at(a) > rank_.at(b);
                       });
    }
    for (const dag::NodeId node : ready) {
      if (ctx.idle_processors().empty()) return;
      picky_decide(ctx, node);
    }
  }

 private:
  bool ranked_;
  std::vector<double> rank_;
};

TEST(ReadyIndexEquivalence, RejectedVisitsAreFiledAgain) {
  const sim::System system = six_proc_system("ideal");
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  const std::vector<dag::Dag> graphs = closed_workload();
  for (const bool ranked : {false, true}) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const std::string where = std::string(ranked ? "ranked" : "fifo") +
                                "/graph " + std::to_string(g);
      IndexedPicky indexed(ranked);
      ScannedPicky scanned(ranked);
      expect_same(sim::Engine(graphs[g], system, cost).run(indexed),
                  sim::Engine(graphs[g], system, cost).run(scanned), where);
    }
  }
}

// --- stream engine -----------------------------------------------------------

/// A saturated burst of paper graphs of mixed types and sizes (the ready
/// set climbs into the hundreds), then a trickle of one arrival per 100 s
/// while the burst drains: later instances land in the slot ranges of
/// retired ones, alongside instances still running.
stream::StreamOptions burst_options(int burst, int trickle) {
  std::vector<sim::TimeMs> arrivals;
  for (int i = 0; i < burst; ++i) arrivals.push_back(10.0 * i);
  for (int i = 1; i <= trickle; ++i) arrivals.push_back(100000.0 * i);
  stream::StreamOptions options;
  options.arrivals = stream::ArrivalSpec::trace(arrivals);
  options.record_schedules = true;
  return options;
}

dag::Dag burst_app(std::size_t k) {
  return dag::paper_graph(k % 2 == 0 ? dag::DfgType::Type1
                                     : dag::DfgType::Type2,
                          k % 5);
}

/// Runs the grid (the policies in `only`, or all) and returns the number
/// of hedges launched.
std::size_t check_stream(const std::string& topology,
                         const stream::StreamOptions& options,
                         const std::vector<std::string>& only = {}) {
  const sim::System system = six_proc_system(topology);
  const sim::LutCostModel cost(lut::paper_lookup_table(), system);
  std::size_t hedges = 0;
  for (const Variant& v : variants(/*closed=*/false)) {
    if (!runs(only, v)) continue;
    const std::string where = topology + "/" + v.label;
    const auto indexed = v.indexed();
    const auto reference = v.reference();
    const stream::StreamOutcome a =
        stream::StreamEngine(system, cost, burst_app, options).run(*indexed);
    const stream::StreamOutcome b =
        stream::StreamEngine(system, cost, burst_app, options)
            .run(*reference);
    expect_same(a, b, where);
    EXPECT_EQ(a.metrics.apps_completed, a.metrics.apps_arrived) << where;
    // Saturated, and long enough that retired slot ranges are reused: some
    // instance arrived after another had already retired.
    if (v.fills_ready_set) {
      EXPECT_GT(a.metrics.queue_depth_max, 100u) << where;
    }
    EXPECT_LT(a.metrics.live_apps_max, a.metrics.apps_arrived) << where;
    hedges += a.metrics.hedges_launched;
  }
  return hedges;
}

TEST(ReadyIndexEquivalence, StreamBurstIdeal) {
  check_stream("ideal", burst_options(12, 12));
}

TEST(ReadyIndexEquivalence, StreamBurstRing) {
  check_stream("ring:6", burst_options(12, 12));
}

TEST(ReadyIndexEquivalence, StreamBurstMesh) {
  check_stream("mesh:2x3", burst_options(12, 12));
}

TEST(ReadyIndexEquivalence, StreamBurstNoiseAndHedging) {
  stream::StreamOptions options = burst_options(8, 6);
  options.noise = noisy();
  options.hedging = hedged();
  EXPECT_GT(check_stream("ideal", options), 0u);
}

TEST(ReadyIndexEquivalence, StreamBurstNoiseOnContendedMesh) {
  stream::StreamOptions options = burst_options(8, 6);
  options.noise = noisy();
  check_stream("mesh:2x3", options, kCommAware);
}

}  // namespace
}  // namespace apt
