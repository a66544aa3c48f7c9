// The densified cost model must agree bit-for-bit with the model it wraps
// on every query the engine or a policy can make, hold the reference
// transfer price of every edge, and answer execution-time queries outside
// its precomputed dag from the base model.
#include "sim/precomputed_cost_model.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "reference_pricing.hpp"
#include "test_helpers.hpp"

namespace apt::sim {
namespace {

TEST(PrecomputedCostModel, MatchesLutModelOnEveryNodeProcAndEdge) {
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, 3);
  const System system = test::paper_system();
  const LutCostModel base(lut::paper_lookup_table(), system);
  const PrecomputedCostModel fast(graph, system, base);

  for (dag::NodeId n = 0; n < graph.node_count(); ++n) {
    for (const Processor& p : system.processors()) {
      EXPECT_EQ(fast.exec_time_ms(graph, n, p), base.exec_time_ms(graph, n, p));
    }
    const auto& succs = graph.successors(n);
    for (std::size_t k = 0; k < succs.size(); ++k) {
      const TimeMs* matrix = fast.out_edge_transfers(n, k);
      for (const Processor& from : system.processors()) {
        for (const Processor& to : system.processors()) {
          EXPECT_EQ(matrix[from.id * system.proc_count() + to.id],
                    test::reference_transfer_ms(base, system, graph, n,
                                                succs[k], from, to));
        }
      }
    }
  }
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
      EXPECT_EQ(fast.mean_transfer_ms(n, k),
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
  for (dag::NodeId a = 0; a < ex.dag.node_count(); ++a) {
    const auto& succs = ex.dag.successors(a);
    for (std::size_t k = 0; k < succs.size(); ++k) {
      EXPECT_EQ(fast.out_edge_index(a, succs[k]), k);
      const TimeMs* matrix = fast.out_edge_transfers(a, k);
      for (const Processor& from : system.processors()) {
        for (const Processor& to : system.processors()) {
          EXPECT_EQ(matrix[from.id * system.proc_count() + to.id],
                    test::reference_transfer_ms(*ex.cost, system, ex.dag, a,
                                                succs[k], from, to));
        }
      }
    }
    // Not an edge: the index is one past the last out-edge.
    EXPECT_EQ(fast.out_edge_index(a, a), succs.size());
  }
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
