#include "policies/peft.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "sim/precomputed_cost_model.hpp"

namespace apt::policies {
namespace {

/// rank_oct of one OCT row (Eq. 7): its mean.
double row_mean(const double* row, std::size_t procs) {
  double sum = 0.0;
  for (std::size_t p = 0; p < procs; ++p) sum += row[p];
  return sum / static_cast<double>(procs);
}

/// The OCT (Eq. 6) from a dense table that covers `dag`, flat [task * P +
/// proc]. c̄ of each edge is computed once, not once per processor p_k.
std::vector<double> oct_table(const dag::Dag& dag,
                              const sim::PrecomputedCostModel& dense) {
  const std::size_t procs = dense.proc_count();
  std::vector<double> oct(dag.node_count() * procs, 0.0);
  std::vector<double> avg_comm;
  const auto topo = dag.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::NodeId t = *it;
    const auto& succs = dag.successors(t);
    const double* weight = dense.out_weights(t);
    avg_comm.resize(succs.size());
    for (std::size_t k = 0; k < succs.size(); ++k)
      avg_comm[k] = dense.mean_transfer_ms(weight[k]);
    for (sim::ProcId pk = 0; pk < procs; ++pk) {
      double worst_child = 0.0;
      for (std::size_t k = 0; k < succs.size(); ++k) {
        const dag::NodeId tj = succs[k];
        const double* child_oct = oct.data() + tj * procs;
        const sim::TimeMs* w = dense.exec_row(tj);
        double best_pw = std::numeric_limits<double>::infinity();
        for (sim::ProcId pw = 0; pw < procs; ++pw) {
          const double comm = (pw == pk) ? 0.0 : avg_comm[k];
          best_pw = std::min(best_pw, child_oct[pw] + w[pw] + comm);
        }
        worst_child = std::max(worst_child, best_pw);
      }
      oct[t * procs + pk] = worst_child;  // exit tasks keep 0
    }
  }
  return oct;
}

}  // namespace

std::vector<std::vector<double>> peft_oct(const dag::Dag& dag,
                                          const sim::System& system,
                                          const sim::CostModel& cost) {
  std::optional<sim::PrecomputedCostModel> storage;
  const std::vector<double> flat =
      oct_table(dag, sim::dense_cost_model(dag, system, cost, storage));
  const std::size_t procs = system.proc_count();
  std::vector<std::vector<double>> oct(dag.node_count());
  for (dag::NodeId t = 0; t < oct.size(); ++t)
    oct[t].assign(flat.begin() + t * procs, flat.begin() + (t + 1) * procs);
  return oct;
}

std::vector<double> peft_rank_oct(
    const std::vector<std::vector<double>>& oct) {
  std::vector<double> rank(oct.size(), 0.0);
  for (std::size_t i = 0; i < oct.size(); ++i) {
    if (!oct[i].empty()) rank[i] = row_mean(oct[i].data(), oct[i].size());
  }
  return rank;
}

StaticPlan Peft::compute_plan(const dag::Dag& dag, const sim::System& system,
                              const sim::CostModel& cost) {
  std::optional<sim::PrecomputedCostModel> storage;
  const sim::PrecomputedCostModel& dense =
      sim::dense_cost_model(dag, system, cost, storage);
  const std::size_t procs = dense.proc_count();
  const std::vector<double> oct = oct_table(dag, dense);
  std::vector<double> rank(dag.node_count());
  for (dag::NodeId t = 0; t < rank.size(); ++t)
    rank[t] = row_mean(oct.data() + t * procs, procs);
  // Processor selection: minimise O_EFT = EFT + OCT(t, p).
  return list_schedule(dag, dense, rank,
                       [&oct, procs](dag::NodeId node, sim::ProcId proc,
                                     sim::TimeMs, sim::TimeMs eft) {
                         return eft + oct[node * procs + proc];
                       });
}

}  // namespace apt::policies
