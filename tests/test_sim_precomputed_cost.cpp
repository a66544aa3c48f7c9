// The densified cost model must agree bit-for-bit with the model it wraps
// on every query the engine or a policy can make, price every edge from its
// stored weights at the reference transfer price, and answer execution-time
// queries outside its precomputed dag from the base model.
#include "sim/precomputed_cost_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "reference_pricing.hpp"
#include "test_helpers.hpp"

namespace apt::sim {
namespace {

/// Every edge of `graph`, priced from `fast`'s stored weight in successor
/// order and in predecessor order over its pair tables, must equal the
/// reference price of `base` on every ordered processor pair.
void expect_edges_priced_like(const PrecomputedCostModel& fast,
                              const CostModel& base, const System& system,
                              const dag::Dag& graph) {
  const PairTables& prices = fast.prices();
  ASSERT_EQ(prices.proc_count, system.proc_count());
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    const auto& succs = graph.successors(n);
    for (std::size_t k = 0; k < succs.size(); ++k) {
      const dag::NodeRange preds = graph.predecessors(succs[k]);
      const std::size_t in_k = static_cast<std::size_t>(
          std::find(preds.begin(), preds.end(), n) - preds.begin());
      ASSERT_LT(in_k, preds.size());
      const double out_weight = fast.out_weights(n)[k];
      const double in_weight = fast.in_weights(succs[k])[in_k];
      for (const Processor& from : system.processors()) {
        for (const Processor& to : system.processors()) {
          const TimeMs want = test::reference_transfer_ms(
              base, system, graph, n, succs[k], from, to);
          EXPECT_EQ(prices.transfer_ms(out_weight, from.id, to.id), want)
              << n << "->" << succs[k] << " on " << from.id << "->" << to.id;
          EXPECT_EQ(prices.transfer_ms(in_weight, from.id, to.id), want)
              << n << "->" << succs[k] << " on " << from.id << "->" << to.id;
        }
      }
    }
  }
}

TEST(PrecomputedCostModel, MatchesLutModelOnEveryNodeProcAndEdge) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 3);
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);

  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    for (const Processor& p : system.processors()) {
      EXPECT_EQ(fast.exec_time_ms(graph, n, p), base.exec_time_ms(graph, n, p));
    }
  }
  expect_edges_priced_like(fast, base, system, graph);
}

TEST(PrecomputedCostModel, MeansMatchTheBaseSummedInProcessorOrder) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);
  const auto& procs = system.processors();
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    double exec_sum = 0.0;
    for (const Processor& p : procs)
      exec_sum += base.exec_time_ms(graph, n, p);
    EXPECT_EQ(fast.mean_exec_ms(n),
              exec_sum / static_cast<double>(procs.size()));
    const auto& succs = graph.successors(n);
    for (std::size_t k = 0; k < succs.size(); ++k) {
      double comm_sum = 0.0;
      for (const Processor& from : procs) {
        for (const Processor& to : procs) {
          if (from.id != to.id)
            comm_sum += test::reference_transfer_ms(base, system, graph, n,
                                                    succs[k], from, to);
        }
      }
      EXPECT_EQ(fast.mean_transfer_ms(fast.out_weights(n)[k]),
                comm_sum / static_cast<double>(procs.size() *
                                               (procs.size() - 1)));
    }
  }
}

TEST(PrecomputedCostModel, ExecRowCopiesTheStoredRow) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 2);
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);
  std::vector<TimeMs> row(system.proc_count());
  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    fast.exec_row_ms(graph, n, system.processors(), row.data());
    for (const Processor& p : system.processors()) {
      EXPECT_EQ(row[p.id], base.exec_time_ms(graph, n, p));
      EXPECT_EQ(row[p.id], fast.exec_row(n)[p.id]);
    }
  }
}

TEST(PrecomputedCostModel, DenseHelperReusesOnlyATableThatCoversTheRun) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, 0);
  const dag::Dag copy = graph;  // equal content, another object
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);

  std::optional<PrecomputedCostModel> storage;
  EXPECT_EQ(&dense_cost_model(graph, system, fast, storage), &fast);
  EXPECT_FALSE(storage.has_value());
  // Another dag object, another processor count, or a model that is not
  // dense: a new table over the given model.
  const PrecomputedCostModel* built = &dense_cost_model(copy, system, fast,
                                                        storage);
  ASSERT_TRUE(storage.has_value());
  EXPECT_EQ(built, &*storage);
  EXPECT_TRUE(storage->covers(copy, system.proc_count()));
  EXPECT_EQ(&storage->base(), &fast);
  const System narrower = test::generic_system(2);
  built = &dense_cost_model(graph, narrower, fast, storage);
  EXPECT_EQ(built, &*storage);
  EXPECT_TRUE(storage->covers(graph, 2));
  built = &dense_cost_model(graph, system, base, storage);
  EXPECT_EQ(built, &*storage);
  EXPECT_EQ(&storage->base(), &base);
}

TEST(PrecomputedCostModel, MatchesMatrixModelOnEveryEdge) {
  const auto ex = test::topcuoglu_example();
  const System system = test::generic_system(3);
  const PrecomputedCostModel fast(ex.dag, system, *ex.cost);
  expect_edges_priced_like(fast, *ex.cost, system, ex.dag);
}

TEST(PrecomputedCostModel, MatchesTheRoutedModelOnTwelveProcessors) {
  const lut::LookupTable table = test::fabric_table();
  const System system = test::fabric_system("mesh:3x4");
  const LutCostModel lut(table, system);
  const TopologyCostModel routed(lut, system);
  const dag::Dag graph = dag::random_layered_dag(
      60, 6, 0.3, 5, dag::KernelPool::from_lookup_table(table));
  const PrecomputedCostModel fast(graph, system, routed);
  expect_edges_priced_like(fast, routed, system, graph);
}

TEST(PrecomputedCostModel, ForeignDagFallsBackToBase) {
  const auto sizes = lut::paper_lookup_table().sizes_for("mm");
  ASSERT_GE(sizes.size(), 2u);
  const dag::Dag graph = test::chain({{"mm", sizes[0]}, {"mm", sizes[0]}});
  const dag::Dag other = test::chain({{"mm", sizes[1]}, {"mm", sizes[1]}});
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);
  // Queries about a dag the adapter never saw answer from the base model.
  EXPECT_EQ(fast.exec_time_ms(other, 0, system.processor(0)),
            base.exec_time_ms(other, 0, system.processor(0)));
  std::vector<TimeMs> row(system.proc_count());
  fast.exec_row_ms(other, 1, system.processors(), row.data());
  for (const Processor& p : system.processors())
    EXPECT_EQ(row[p.id], base.exec_time_ms(other, 1, p));
}

TEST(PrecomputedCostModel, EngineRunsAreBitIdenticalWithAndWithoutWrapping) {
  // Engine::run wraps internally; pre-wrapping by hand must change nothing
  // (and the engine must not double-wrap).
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 1);
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);

  const auto run = [&](const CostModel& cost) {
    auto policy = core::make_policy("apt:4");
    Engine engine(graph, system, cost);
    return engine.run(*policy);
  };
  const SimResult a = run(base);
  const SimResult b = run(fast);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  EXPECT_EQ(a.makespan, b.makespan);
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].proc, b.schedule[i].proc);
    EXPECT_EQ(a.schedule[i].finish_time, b.schedule[i].finish_time);
  }
}

}  // namespace
}  // namespace apt::sim
