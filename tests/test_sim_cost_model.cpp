#include "sim/cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "reference_pricing.hpp"
#include "scenario/scenario.hpp"
#include "sim/precomputed_cost_model.hpp"
#include "sim/validate.hpp"
#include "test_helpers.hpp"

namespace apt::sim {
namespace {

/// A platform, its lookup table, and a 46-kernel graph drawn from it.
struct RowCase {
  std::string name;
  System system;
  lut::LookupTable table;
  dag::Dag dag;
};

std::vector<RowCase> row_cases() {
  std::vector<RowCase> cases;
  cases.push_back({"paper", test::paper_system(), lut::paper_lookup_table(),
                   scenario::generate("type1", 46, 3,
                                      dag::KernelPool::paper_pool())});
  const lut::LookupTable table = test::fabric_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);
  cases.push_back({"12-proc", test::fabric_system("mesh:3x4"), table,
                   scenario::generate("layered", 46, 3, pool)});
  return cases;
}

/// exec_row_ms must reproduce exec_time_ms bit for bit on every node.
void expect_rows_match(const CostModel& cost, const RowCase& c) {
  std::vector<TimeMs> row(c.system.proc_count());
  for (dag::NodeId n = 0; n < c.dag.node_count(); ++n) {
    cost.exec_row_ms(c.dag, n, c.system.processors(), row.data());
    for (const Processor& p : c.system.processors())
      EXPECT_EQ(row[p.id], cost.exec_time_ms(c.dag, n, p))
          << c.name << " node " << n << " proc " << p.id;
  }
}

TEST(CostModelRows, LutRowEqualsPerProcessorQueries) {
  for (const RowCase& c : row_cases())
    expect_rows_match(LutCostModel(c.table, c.system), c);
}

TEST(CostModelRows, LenientLutRowFallsBackToTheNearestSize) {
  const System sys = test::paper_system();
  const LutCostModel cost(lut::paper_lookup_table(), sys, /*strict=*/false);
  dag::Dag d;
  d.add_node("mm", 260000);  // nearest measured: 250000
  const RowCase c{"lenient", sys, lut::paper_lookup_table(), d};
  expect_rows_match(cost, c);
}

TEST(CostModelRows, MatrixRowEqualsPerProcessorQueries) {
  for (const RowCase& c : row_cases()) {
    std::vector<std::vector<TimeMs>> exec(c.dag.node_count());
    for (dag::NodeId n = 0; n < c.dag.node_count(); ++n) {
      for (std::size_t p = 0; p < c.system.proc_count(); ++p)
        exec[n].push_back(1.0 + 0.37 * static_cast<double>(n * 7 + p * 3));
    }
    expect_rows_match(MatrixCostModel(exec), c);
  }
}

TEST(CostModelRows, TopologyRowEqualsPerProcessorQueries) {
  for (const RowCase& c : row_cases()) {
    const LutCostModel base(c.table, c.system);
    expect_rows_match(TopologyCostModel(base, c.system), c);
  }
}

/// The bit pattern of a double, so a comparison tells -0 from +0.
std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

/// Pair tables times edge weights must reproduce the reference price bit
/// for bit on every edge and every ordered processor pair, the local ones
/// included: the event core prices transfers only this way. A dense model
/// must price each edge the same from its stored weights in successor and
/// in predecessor order and its own copy of the tables.
void expect_pair_tables_match(const CostModel& cost, const System& system,
                              const dag::Dag& dag, const std::string& name) {
  const std::vector<Processor>& procs = system.processors();
  const PairTables tables = cost.pair_tables(procs);
  ASSERT_EQ(tables.proc_count, procs.size()) << name;
  ASSERT_EQ(tables.prices.size(), procs.size() * procs.size()) << name;
  const auto* dense = dynamic_cast<const PrecomputedCostModel*>(&cost);
  std::size_t edges = 0;
  std::size_t mismatches = 0;
  std::string first;
  for (dag::NodeId src = 0; src < dag.node_count(); ++src) {
    const dag::NodeRange succs = dag.successors(src);
    for (std::size_t k = 0; k < succs.size(); ++k) {
      const dag::NodeId dst = succs[k];
      ++edges;
      const double weight = cost.edge_weight(dag, src, dst);
      // The edge's place among dst's in-edges.
      const dag::NodeRange preds = dag.predecessors(dst);
      const std::size_t in_k = static_cast<std::size_t>(
          std::find(preds.begin(), preds.end(), src) - preds.begin());
      for (const Processor& from : procs) {
        for (const Processor& to : procs) {
          const TimeMs want = test::reference_transfer_ms(cost, system, dag,
                                                          src, dst, from, to);
          const TimeMs table = tables.transfer_ms(weight, from.id, to.id);
          TimeMs out = want;
          TimeMs in = want;
          if (dense != nullptr) {
            out = dense->prices().transfer_ms(dense->out_weights(src)[k],
                                              from.id, to.id);
            in = dense->prices().transfer_ms(dense->in_weights(dst)[in_k],
                                             from.id, to.id);
          }
          if (bits(table) == bits(want) && bits(out) == bits(want) &&
              bits(in) == bits(want))
            continue;
          if (mismatches++ > 0) continue;
          first = "edge " + std::to_string(src) + "->" + std::to_string(dst);
          first += ", procs " + std::to_string(from.id);
          first += "->" + std::to_string(to.id) + ": reference ";
          first += std::to_string(want) + ", table " + std::to_string(table);
          if (dense != nullptr) {
            first += ", dense out-edge " + std::to_string(out);
            first += ", dense in-edge " + std::to_string(in);
          }
        }
      }
    }
  }
  EXPECT_GT(edges, 0u) << name;
  EXPECT_EQ(mismatches, 0u) << name << ", first " << first;
}

/// `system`'s platform on `topology` at 1 GB/s with 0.05 ms per hop.
System on_topology(const System& system, const std::string& topology) {
  SystemConfig cfg = system.config();
  cfg.topology = net::parse_topology_spec(topology);
  cfg.topology.bandwidth_gbps = 1.0;
  cfg.topology.latency_ms = 0.05;
  return System(cfg);
}

// The per-edge queries are reference_transfer_ms's formulas.
TEST(CostModelRows, PairTablesEqualPerEdgeQueries) {
  for (const RowCase& c : row_cases()) {
    const LutCostModel lut(c.table, c.system);
    expect_pair_tables_match(lut, c.system, c.dag, c.name + " lut");
    expect_pair_tables_match(PrecomputedCostModel(c.dag, c.system, lut),
                             c.system, c.dag, c.name + " dense lut");
    // ring:6 has too few positions for the 12-processor platform.
    for (const std::string topology :
         {"bus", "crossbar", "hier:2", "ring:6", "mesh:3x4", "fattree:2"}) {
      if (topology == "ring:6" && c.system.proc_count() > 6) continue;
      const System system = on_topology(c.system, topology);
      const LutCostModel base(c.table, system);
      const TopologyCostModel routed(base, system);
      const std::string name = c.name + " " + topology;
      expect_pair_tables_match(routed, system, c.dag, name);
      expect_pair_tables_match(PrecomputedCostModel(c.dag, system, routed),
                               system, c.dag, name + " dense");
    }
  }
  // Per-edge costs ride on the weights: latency 0, rate 1 between
  // distinct processors.
  const test::TopcuogluExample ex = test::topcuoglu_example();
  const System generic = test::generic_system(3);
  expect_pair_tables_match(*ex.cost, generic, ex.dag, "topcuoglu");
  expect_pair_tables_match(PrecomputedCostModel(ex.dag, generic, *ex.cost),
                           generic, ex.dag, "topcuoglu dense");
}

/// The longest best-time path as the bound computed it before it walked
/// Kahn's FIFO order: over Dag::topological_order(), the min-id heap order.
/// Frozen here as the reference the FIFO walk must equal bit for bit.
TimeMs heap_ordered_longest_path_ms(const dag::Dag& dag,
                                    const std::vector<TimeMs>& best_ms) {
  std::vector<TimeMs> longest(dag.node_count(), 0.0);
  TimeMs bound = 0.0;
  for (const dag::NodeId n : dag.topological_order()) {
    longest[n] += best_ms[n];
    bound = std::max(bound, longest[n]);
    for (const dag::NodeId s : dag.successors(n))
      longest[s] = std::max(longest[s], longest[n]);
  }
  return bound;
}

// The best-times overload is what the stream engine feeds from its min-exec
// slabs (a row's minimum, lowest index first); it must reproduce the
// CostModel overload bit for bit on every family, and both must equal the
// bound over the frozen heap-ordered walk. One scratch serves every graph,
// as one serves every admission of a stream run.
TEST(MakespanLowerBound, BestTimesOverloadEqualsCostModelOverload) {
  LowerBoundScratch scratch;
  for (const RowCase& c : row_cases()) {
    const LutCostModel cost(c.table, c.system);
    const dag::KernelPool pool = dag::KernelPool::from_lookup_table(c.table);
    for (const scenario::ScenarioFamily* family : scenario::all_families()) {
      const dag::Dag dag = family->generate(46, 5, pool);
      std::vector<TimeMs> row(c.system.proc_count());
      std::vector<TimeMs> best(dag.node_count());
      for (dag::NodeId n = 0; n < dag.node_count(); ++n) {
        cost.exec_row_ms(dag, n, c.system.processors(), row.data());
        best[n] = row[0];
        for (const TimeMs t : row) best[n] = t < best[n] ? t : best[n];
      }
      EXPECT_EQ(makespan_lower_bound_ms(dag, c.system, best.data(), scratch),
                makespan_lower_bound_ms(dag, c.system, cost))
          << c.name << " " << family->name();
      const TimeMs path = heap_ordered_longest_path_ms(dag, best);
      TimeMs total_best = 0.0;
      for (const TimeMs t : best) total_best += t;
      const TimeMs area =
          total_best / static_cast<double>(c.system.proc_count());
      EXPECT_EQ(bits(critical_path_lower_bound_ms(dag, c.system, cost)),
                bits(path))
          << c.name << " " << family->name();
      EXPECT_EQ(
          bits(makespan_lower_bound_ms(dag, c.system, best.data(), scratch)),
          bits(std::max(area, path)))
          << c.name << " " << family->name();
    }
  }
}

TEST(LutCostModel, ExecTimesComeFromTheTable) {
  const System sys = test::paper_system();
  const LutCostModel cost(lut::paper_lookup_table(), sys);
  dag::Dag d;
  d.add_node("mm", 16000000);
  EXPECT_DOUBLE_EQ(cost.exec_time_ms(d, 0, sys.processor(0)), 1967.286);
  EXPECT_DOUBLE_EQ(cost.exec_time_ms(d, 0, sys.processor(1)), 0.061);
  EXPECT_DOUBLE_EQ(cost.exec_time_ms(d, 0, sys.processor(2)), 76293.945);
}

TEST(LutCostModel, SameTypeInstancesShareTimes) {
  SystemConfig cfg;
  cfg.processors = {lut::ProcType::GPU, lut::ProcType::GPU};
  const System sys(cfg);
  const LutCostModel cost(lut::paper_lookup_table(), sys);
  dag::Dag d;
  d.add_node("srad", 134217728);
  EXPECT_DOUBLE_EQ(cost.exec_time_ms(d, 0, sys.processor(0)),
                   cost.exec_time_ms(d, 0, sys.processor(1)));
}

TEST(LutCostModel, StrictModeThrowsOnUnknownSize) {
  const System sys = test::paper_system();
  const LutCostModel cost(lut::paper_lookup_table(), sys);
  dag::Dag d;
  d.add_node("mm", 123456);  // not a measured size
  EXPECT_THROW(cost.exec_time_ms(d, 0, sys.processor(0)), std::out_of_range);
  // The row path throws too, with LookupTable::at's message for the name
  // as the DAG stored it.
  d.add_node("Matrix Multiplication", 123456);  // stored as "mm"
  std::vector<TimeMs> row(sys.proc_count());
  try {
    cost.exec_row_ms(d, 1, sys.processors(), row.data());
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "LookupTable: no row for kernel 'mm' size 123456");
  }
}

TEST(LutCostModel, LenientModeFallsBackToNearestSize) {
  const System sys = test::paper_system();
  const lut::LookupTable table = lut::paper_lookup_table();
  const LutCostModel cost(table, sys, /*strict=*/false);
  dag::Dag d;
  d.add_node("mm", 260000);  // nearest measured: 250000
  EXPECT_DOUBLE_EQ(cost.exec_time_ms(d, 0, sys.processor(0)), 29.631);
  // Every off-grid size next to every row, per processor and per row.
  std::vector<TimeMs> row(sys.proc_count());
  for (const lut::Entry& e : table.entries()) {
    for (const std::uint64_t size :
         {e.data_size + 1, e.data_size - 1, e.data_size * 3 / 2}) {
      ASSERT_FALSE(table.contains(e.kernel, size)) << e.kernel << " " << size;
      dag::Dag off;
      off.add_node(e.kernel, size);
      const lut::Entry& want = table.nearest(e.kernel, size);
      cost.exec_row_ms(off, 0, sys.processors(), row.data());
      for (const Processor& p : sys.processors()) {
        EXPECT_EQ(cost.exec_time_ms(off, 0, p), want.time(p.type))
            << e.kernel << " " << size;
        EXPECT_EQ(row[p.id], want.time(p.type)) << e.kernel << " " << size;
      }
    }
  }
}

// dag::Dag::add_node stores the canonical name and LutCostModel probes with
// it as stored: long and mixed-case spellings must still resolve, per
// processor and per row, to the entry LookupTable::at finds for the name
// as written.
TEST(LutCostModel, AliasedNamesResolveToTheCanonicalRow) {
  const System sys = test::paper_system();
  const lut::LookupTable table = lut::paper_lookup_table();
  const LutCostModel cost(table, sys);
  std::vector<TimeMs> row(sys.proc_count());
  const auto expect_resolves = [&](const char* name, std::uint64_t size) {
    dag::Dag d;
    d.add_node(name, size);
    const lut::Entry& want = table.at(name, size);
    EXPECT_EQ(d.node(0).kernel, want.kernel) << name;
    cost.exec_row_ms(d, 0, sys.processors(), row.data());
    for (const Processor& p : sys.processors()) {
      EXPECT_EQ(cost.exec_time_ms(d, 0, p), want.time(p.type)) << name;
      EXPECT_EQ(row[p.id], want.time(p.type)) << name;
    }
  };
  expect_resolves("Matrix Multiplication", 16000000);
  expect_resolves(" MM ", 250000);
  expect_resolves("Matrix-Matrix Multiplication", 64000000);
  expect_resolves("Cholesky Decomposition", 1000000);
  expect_resolves("Matrix Inverse", 698896);
  expect_resolves("Needleman Wunsch", 16777216);
  expect_resolves("BFS", 2034736);
  expect_resolves("SRAD", 134217728);
  expect_resolves("Gem", 2070376);
}

/// What the event core charges `cost` to move edge src -> dst from
/// processor `from` to processor `to` of `sys`.
TimeMs priced_ms(const CostModel& cost, const System& sys, const dag::Dag& d,
                 dag::NodeId src, dag::NodeId dst, ProcId from, ProcId to) {
  const PairTables tables = cost.pair_tables(sys.processors());
  return tables.transfer_ms(cost.edge_weight(d, src, dst), from, to);
}

TEST(LutCostModel, TransferUsesProducerSizeAndLinkRate) {
  const System sys = test::paper_system(4.0);
  const LutCostModel cost(lut::paper_lookup_table(), sys);
  dag::Dag d;
  d.add_node("bfs", 2034736);
  d.add_node("cd", 250000);
  d.add_edge(0, 1);
  // 2034736 elements * 4 B = 8138944 B; at 4e6 B/ms -> 2.034736 ms.
  EXPECT_NEAR(priced_ms(cost, sys, d, 0, 1, 2, 0), 2.034736, 1e-9);
  EXPECT_DOUBLE_EQ(priced_ms(cost, sys, d, 0, 1, 1, 1), 0.0);
}

TEST(LutCostModel, PairTablesReadTheConfiguredRate) {
  const System sys = test::paper_system(8.0);
  const LutCostModel cost(lut::paper_lookup_table(), sys);
  const PairTables tables = cost.pair_tables(sys.processors());
  // 8 GB/s == 8e6 bytes/ms between every pair of distinct processors.
  const double inf = std::numeric_limits<double>::infinity();
  for (ProcId from = 0; from < 3; ++from) {
    for (ProcId to = 0; to < 3; ++to) {
      EXPECT_EQ(tables.prices[from * 3 + to].latency_ms, 0.0);
      EXPECT_EQ(tables.prices[from * 3 + to].rate, from == to ? inf : 8e6);
    }
  }
}

TEST(LutCostModel, TransferScalesWithRate) {
  const System s4 = test::paper_system(4.0);
  const System s8 = test::paper_system(8.0);
  const LutCostModel c4(lut::paper_lookup_table(), s4);
  const LutCostModel c8(lut::paper_lookup_table(), s8);
  dag::Dag d;
  d.add_node("nw", 16777216);
  d.add_node("cd", 250000);
  d.add_edge(0, 1);
  const double t4 = priced_ms(c4, s4, d, 0, 1, 0, 1);
  const double t8 = priced_ms(c8, s8, d, 0, 1, 0, 1);
  EXPECT_NEAR(t4, 2.0 * t8, 1e-12);
}

TEST(LutCostModel, EmptyTableRejected) {
  const System sys = test::paper_system();
  EXPECT_THROW(LutCostModel(lut::LookupTable{}, sys), std::invalid_argument);
}

TEST(MatrixCostModel, ExecAndCommByIndex) {
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{1.0, 2.0}, {3.0, 4.0}});
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_edge(0, 1);
  cost.set_comm_cost(0, 1, 7.5);
  EXPECT_DOUBLE_EQ(cost.exec_time_ms(d, 0, sys.processor(1)), 2.0);
  EXPECT_DOUBLE_EQ(cost.exec_time_ms(d, 1, sys.processor(0)), 3.0);
  EXPECT_DOUBLE_EQ(priced_ms(cost, sys, d, 0, 1, 0, 1), 7.5);
  EXPECT_DOUBLE_EQ(priced_ms(cost, sys, d, 0, 1, 1, 1), 0.0);
}

TEST(MatrixCostModel, UnsetEdgesAreFree) {
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{1.0, 1.0}, {1.0, 1.0}});
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(priced_ms(cost, sys, d, 0, 1, 0, 1), 0.0);
}

TEST(MatrixCostModel, Validation) {
  using Matrix = std::vector<std::vector<TimeMs>>;
  EXPECT_THROW(MatrixCostModel(Matrix{}), std::invalid_argument);
  EXPECT_THROW(MatrixCostModel(Matrix{{}}), std::invalid_argument);
  EXPECT_THROW(MatrixCostModel(Matrix{{1.0}, {1.0, 2.0}}),
               std::invalid_argument);
  MatrixCostModel ok(Matrix{{1.0}});
  EXPECT_THROW(ok.set_comm_cost(0, 1, -1.0), std::invalid_argument);
}

TEST(MatrixCostModel, OutOfRangeQueriesThrow) {
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{1.0, 2.0}});
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  EXPECT_THROW(cost.exec_time_ms(d, 1, sys.processor(0)), std::out_of_range);
}

// The HEFT/PEFT means w̄ and c̄ read the dense table (PrecomputedCostModel).

TEST(CostModelAverages, MeanExecOverProcessors) {
  const System sys = test::generic_system(3);
  MatrixCostModel cost({{14.0, 16.0, 9.0}});
  dag::Dag d;
  d.add_node("t1", 1);
  const PrecomputedCostModel dense(d, sys, cost);
  EXPECT_DOUBLE_EQ(dense.mean_exec_ms(0), 13.0);
}

TEST(CostModelAverages, MeanCommOverDistinctPairs) {
  const System sys = test::generic_system(3);
  MatrixCostModel cost({{1, 1, 1}, {1, 1, 1}});
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_edge(0, 1);
  cost.set_comm_cost(0, 1, 18.0);
  const PrecomputedCostModel dense(d, sys, cost);
  // All six ordered distinct pairs cost 18 -> mean 18 (same-proc excluded).
  EXPECT_DOUBLE_EQ(dense.mean_transfer_ms(dense.out_weights(0)[0]), 18.0);
}

TEST(CostModelAverages, SingleProcessorCommIsZero) {
  const System sys = test::generic_system(1);
  MatrixCostModel cost({{1}, {1}});
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_edge(0, 1);
  cost.set_comm_cost(0, 1, 18.0);
  const PrecomputedCostModel dense(d, sys, cost);
  EXPECT_DOUBLE_EQ(dense.mean_transfer_ms(dense.out_weights(0)[0]), 0.0);
}

}  // namespace
}  // namespace apt::sim
