// The static planners read one dense cost table per run, and the static
// executor learns new ready kernels through ready_from() instead of reading
// the whole ready set. Both must reproduce the frozen planners and executor
// (reference_static_planners.hpp) bit for bit: HEFT's upward and downward
// ranks, PEFT's optimistic cost table and rank_oct, every planned task,
// APT-Ranked's ranks, and full sim::Engine schedules of HEFT, PEFT and
// APT-Ranked. The inputs are the paper's Type-1/Type-2 graphs at all ten
// sizes and seeded graphs of all seven families, on the paper's ideal and
// ring platforms and six processors on a 2x3 mesh, and seeded graphs of the
// seven families on twelve processors on a 3x4 mesh with a synthetic
// table, priced by the lookup-table model, its dense table, and the
// topology-priced adapter; plus the HEFT paper's matrix example, and dense
// tables the planners must not reuse.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iomanip>
#include <string>
#include <tuple>
#include <vector>

#include "core/apt_ranked.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "net/topology.hpp"
#include "policies/heft.hpp"
#include "policies/peft.hpp"
#include "scenario/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/precomputed_cost_model.hpp"
#include "test_helpers.hpp"

#include "reference_scan_policies.hpp"
#include "reference_static_planners.hpp"

namespace apt {
namespace {

namespace reference = policies::reference;

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

::testing::AssertionResult same_bits(double a, double b, const char* what,
                                     std::size_t i) {
  if (bits(a) == bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << what << " " << i << ": " << std::setprecision(17) << a << " vs "
         << b;
}

::testing::AssertionResult same_values(const std::vector<double>& a,
                                       const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << a.size() << " vs " << b.size() << " entries";
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto r = same_bits(a[i], b[i], "entry", i);
    if (!r) return r;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_table(
    const std::vector<std::vector<double>>& a,
    const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << a.size() << " vs " << b.size() << " rows";
  for (std::size_t i = 0; i < a.size(); ++i) {
    auto r = same_values(a[i], b[i]);
    if (!r) return r << " in row " << i;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_plan(const policies::StaticPlan& a,
                                     const policies::StaticPlan& b) {
  if (a.tasks.size() != b.tasks.size())
    return ::testing::AssertionFailure()
           << a.tasks.size() << " vs " << b.tasks.size() << " tasks";
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const policies::PlannedTask& x = a.tasks[i];
    const policies::PlannedTask& y = b.tasks[i];
    if (x.node != y.node || x.proc != y.proc)
      return ::testing::AssertionFailure()
             << "task " << i << ": node " << x.node << " on " << x.proc
             << " vs node " << y.node << " on " << y.proc;
    auto r = same_bits(x.start, y.start, "start of task", i);
    if (r) r = same_bits(x.finish, y.finish, "finish of task", i);
    if (!r) return r;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_run(const sim::SimResult& a,
                                    const sim::SimResult& b) {
  auto r = same_bits(a.makespan, b.makespan, "makespan", 0);
  if (!r) return r;
  if (a.schedule.size() != b.schedule.size() ||
      a.transfers.size() != b.transfers.size())
    return ::testing::AssertionFailure() << "record counts differ";
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    const sim::ScheduledKernel& x = a.schedule[i];
    const sim::ScheduledKernel& y = b.schedule[i];
    if (x.node != y.node || x.proc != y.proc ||
        x.alternative != y.alternative)
      return ::testing::AssertionFailure()
             << "kernel " << i << ": node " << x.node << " on " << x.proc
             << " vs node " << y.node << " on " << y.proc;
    for (const auto& [p, q, what] :
         {std::tuple{x.ready_time, y.ready_time, "ready_time of kernel"},
          std::tuple{x.assign_time, y.assign_time, "assign_time of kernel"},
          std::tuple{x.exec_start, y.exec_start, "exec_start of kernel"},
          std::tuple{x.finish_time, y.finish_time, "finish_time of kernel"},
          std::tuple{x.transfer_ms, y.transfer_ms, "transfer_ms of kernel"}}) {
      r = same_bits(p, q, what, i);
      if (!r) return r;
    }
  }
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    const sim::TransferRecord& x = a.transfers[i];
    const sim::TransferRecord& y = b.transfers[i];
    if (x.src != y.src || x.dst != y.dst || x.from != y.from || x.to != y.to)
      return ::testing::AssertionFailure() << "transfer " << i << " differs";
    r = same_bits(x.start, y.start, "start of transfer", i);
    if (r) r = same_bits(x.finish, y.finish, "finish of transfer", i);
    if (!r) return r;
  }
  return ::testing::AssertionSuccess();
}

sim::SimResult run(const dag::Dag& dag, const sim::System& system,
                   const sim::CostModel& cost, sim::Policy& policy) {
  sim::Engine engine(dag, system, cost);
  return engine.run(policy);
}

/// Every planner output and full engine schedule, shipped against frozen.
void expect_equivalent(const dag::Dag& dag, const sim::System& system,
                       const sim::CostModel& cost, const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(same_values(policies::heft_upward_ranks(dag, system, cost),
                          reference::heft_upward_ranks(dag, system, cost)));
  EXPECT_TRUE(same_values(policies::heft_downward_ranks(dag, system, cost),
                          reference::heft_downward_ranks(dag, system, cost)));
  const auto oct = policies::peft_oct(dag, system, cost);
  const auto reference_oct = reference::peft_oct(dag, system, cost);
  EXPECT_TRUE(same_table(oct, reference_oct));
  EXPECT_TRUE(same_values(policies::peft_rank_oct(oct),
                          reference::peft_rank_oct(reference_oct)));

  policies::Heft heft;
  reference::Heft reference_heft;
  heft.prepare(dag, system, cost);
  reference_heft.prepare(dag, system, cost);
  EXPECT_TRUE(same_plan(heft.plan(), reference_heft.plan())) << "HEFT plan";
  policies::Peft peft;
  reference::Peft reference_peft;
  peft.prepare(dag, system, cost);
  reference_peft.prepare(dag, system, cost);
  EXPECT_TRUE(same_plan(peft.plan(), reference_peft.plan())) << "PEFT plan";
  core::AptRanked ranked(4.0);
  ranked.prepare(dag, system, cost);
  EXPECT_TRUE(same_values(ranked.ranks(),
                          reference::heft_upward_ranks(dag, system, cost)));

  EXPECT_TRUE(same_run(run(dag, system, cost, heft),
                       run(dag, system, cost, reference_heft)))
      << "HEFT run";
  EXPECT_TRUE(same_run(run(dag, system, cost, peft),
                       run(dag, system, cost, reference_peft)))
      << "PEFT run";
  test::ReferenceAptRanked reference_ranked(4.0);
  EXPECT_TRUE(same_run(run(dag, system, cost, ranked),
                       run(dag, system, cost, reference_ranked)))
      << "APT-Ranked run";
}

struct Platform {
  const char* name;
  sim::System system;
  lut::LookupTable table;
  bool paper_table;  ///< also plan the paper's own graphs
};

std::vector<Platform> platforms() {
  sim::SystemConfig ring = sim::SystemConfig::paper_default();
  ring.topology = net::parse_topology_spec("ring");
  sim::SystemConfig mesh;
  mesh.processors = {lut::ProcType::CPU,  lut::ProcType::GPU,
                     lut::ProcType::FPGA, lut::ProcType::CPU,
                     lut::ProcType::GPU,  lut::ProcType::FPGA};
  mesh.topology = net::parse_topology_spec("mesh:2x3");
  const lut::LookupTable paper = lut::paper_lookup_table();
  std::vector<Platform> out;
  out.push_back({"ideal", test::paper_system(), paper, true});
  out.push_back({"ring", sim::System(ring), paper, true});
  out.push_back({"mesh:2x3", sim::System(mesh), paper, true});
  // Twelve processors: c̄ sums 132 distinct pairs per edge. A c̄ summed
  // from the last source processor down fails here, and on none of the
  // smaller platforms.
  out.push_back({"mesh:3x4", test::fabric_system("mesh:3x4"),
                 test::fabric_table(), false});
  return out;
}

struct Graph {
  std::string name;
  dag::Dag dag;
};

/// Seeded graphs of every family drawn from `table`'s kernels, after the
/// paper's Type-1/Type-2 graphs at all ten sizes when `paper` is set.
std::vector<Graph> graphs(const lut::LookupTable& table, bool paper) {
  std::vector<Graph> out;
  for (std::size_t rung = 0;
       paper && rung < dag::paper_experiment_sizes().size(); ++rung) {
    out.push_back({"paper type1 #" + std::to_string(rung),
                   dag::paper_graph(dag::DfgType::Type1, rung)});
    out.push_back({"paper type2 #" + std::to_string(rung),
                   dag::paper_graph(dag::DfgType::Type2, rung)});
  }
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  for (const char* family : {"type1", "type2", "layered", "forkjoin",
                             "intree", "outtree", "cholesky"}) {
    for (const std::size_t kernels : {24u, 60u}) {
      for (const std::uint64_t seed : {3u, 17u}) {
        out.push_back({std::string(family) + " n" + std::to_string(kernels) +
                           " seed " + std::to_string(seed),
                       scenario::family(family).generate(kernels, seed, pool)});
      }
    }
  }
  return out;
}

TEST(StaticPlannerEquivalence, MatchesTheFrozenPlannersOnEveryCostModel) {
  for (const Platform& platform : platforms()) {
    const std::vector<Graph> all = graphs(platform.table, platform.paper_table);
    const sim::LutCostModel lut(platform.table, platform.system);
    const sim::TopologyCostModel topology(lut, platform.system);
    for (const Graph& g : all) {
      const std::string label = g.name + " on " + platform.name;
      const sim::PrecomputedCostModel dense(g.dag, platform.system, lut);
      expect_equivalent(g.dag, platform.system, lut, label + ", lut");
      expect_equivalent(g.dag, platform.system, dense, label + ", dense");
      expect_equivalent(g.dag, platform.system, topology,
                        label + ", topology");
    }
  }
}

TEST(StaticPlannerEquivalence, MatchesTheFrozenPlannersOnTheHeftExample) {
  const auto ex = test::topcuoglu_example();
  const sim::System system = test::generic_system(3);
  expect_equivalent(ex.dag, system, *ex.cost, "matrix");
  const sim::PrecomputedCostModel dense(ex.dag, system, *ex.cost);
  expect_equivalent(ex.dag, system, dense, "dense matrix");
}

TEST(StaticPlannerEquivalence, DenseTablesOfAnotherRunAreNotReused) {
  // A dense table answers queries about another dag object, or processors
  // past its own count, from its base model. The planners must see those
  // answers, not the table's rows.
  const lut::LookupTable table = lut::paper_lookup_table();
  const sim::System system = test::paper_system();
  const sim::LutCostModel lut(table, system);
  sim::SystemConfig narrow_cfg;
  narrow_cfg.processors = {lut::ProcType::GPU, lut::ProcType::CPU};
  const sim::System narrow(narrow_cfg);
  const dag::KernelPool pool = dag::KernelPool::paper_pool();
  for (const std::size_t rung : {0u, 9u}) {
    for (const auto type : {dag::DfgType::Type1, dag::DfgType::Type2}) {
      const dag::Dag graph = dag::paper_graph(type, rung);
      const dag::Dag other =
          scenario::family(type == dag::DfgType::Type1 ? "type1" : "type2")
              .generate(graph.node_count(), 5 + rung, pool);
      ASSERT_EQ(other.node_count(), graph.node_count());
      const std::string label = "paper #" + std::to_string(rung);
      const sim::PrecomputedCostModel of_other(other, system, lut);
      expect_equivalent(graph, system, of_other, label + ", other dag");
      const sim::PrecomputedCostModel of_narrow(graph, narrow, lut);
      expect_equivalent(graph, system, of_narrow, label + ", two processors");
    }
  }
}

}  // namespace
}  // namespace apt
