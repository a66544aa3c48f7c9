#include "policies/heft.hpp"

#include <algorithm>
#include <optional>

#include "sim/precomputed_cost_model.hpp"

namespace apt::policies {
namespace {

std::vector<double> upward_ranks(const dag::Dag& dag,
                                 const sim::PrecomputedCostModel& dense) {
  const auto topo = dag.topological_order();
  std::vector<double> rank(dag.node_count(), 0.0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::NodeId n = *it;
    const auto& succs = dag.successors(n);
    double tail = 0.0;
    for (std::size_t k = 0; k < succs.size(); ++k)
      tail = std::max(tail, dense.mean_transfer_ms(n, k) + rank[succs[k]]);
    rank[n] = dense.mean_exec_ms(n) + tail;
  }
  return rank;
}

}  // namespace

std::vector<double> heft_upward_ranks(const dag::Dag& dag,
                                      const sim::System& system,
                                      const sim::CostModel& cost) {
  std::optional<sim::PrecomputedCostModel> storage;
  return upward_ranks(dag, sim::dense_cost_model(dag, system, cost, storage));
}

std::vector<double> heft_downward_ranks(const dag::Dag& dag,
                                        const sim::System& system,
                                        const sim::CostModel& cost) {
  std::optional<sim::PrecomputedCostModel> storage;
  const sim::PrecomputedCostModel& dense =
      sim::dense_cost_model(dag, system, cost, storage);
  std::vector<double> rank(dag.node_count(), 0.0);
  for (const dag::NodeId n : dag.topological_order()) {
    for (const dag::NodeId p : dag.predecessors(n)) {
      rank[n] = std::max(
          rank[n], rank[p] + dense.mean_exec_ms(p) +
                       dense.mean_transfer_ms(p, dense.out_edge_index(p, n)));
    }
  }
  return rank;
}

StaticPlan Heft::compute_plan(const dag::Dag& dag, const sim::System& system,
                              const sim::CostModel& cost) {
  std::optional<sim::PrecomputedCostModel> storage;
  const sim::PrecomputedCostModel& dense =
      sim::dense_cost_model(dag, system, cost, storage);
  const std::vector<double> rank = upward_ranks(dag, dense);
  // Processor selection: minimise the earliest finish time.
  return list_schedule(dag, dense, rank,
                       [](dag::NodeId, sim::ProcId, sim::TimeMs,
                          sim::TimeMs eft) { return eft; });
}

}  // namespace apt::policies
