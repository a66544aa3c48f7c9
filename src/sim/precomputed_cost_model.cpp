#include "sim/precomputed_cost_model.hpp"

#include <algorithm>

namespace apt::sim {

PrecomputedCostModel::PrecomputedCostModel(const dag::Dag& dag,
                                           const System& system,
                                           const CostModel& base)
    : dag_(&dag), base_(base), proc_count_(system.proc_count()) {
  const std::size_t n = dag.node_count();
  const std::size_t p = proc_count_;
  const auto& procs = system.processors();

  exec_.resize(n * p);
  for (dag::NodeId node = 0; node < n; ++node)
    base.exec_row_ms(dag, node, procs, exec_.data() + node * p);

  edge_offset_.resize(n + 1, 0);
  for (dag::NodeId node = 0; node < n; ++node)
    edge_offset_[node + 1] = edge_offset_[node] + dag.out_degree(node);

  const PairTables tables = base.pair_tables(procs);
  transfer_.resize(edge_offset_[n] * p * p);
  for (dag::NodeId src = 0; src < n; ++src) {
    const auto& succs = dag.successors(src);
    for (std::size_t k = 0; k < succs.size(); ++k) {
      const double weight = base.edge_weight(dag, src, succs[k]);
      TimeMs* slot = transfer_.data() + (edge_offset_[src] + k) * p * p;
      for (ProcId from = 0; from < p; ++from) {
        for (ProcId to = 0; to < p; ++to)
          slot[from * p + to] = tables.transfer_ms(weight, from, to);
      }
    }
  }
}

TimeMs PrecomputedCostModel::exec_time_ms(const dag::Dag& dag,
                                          dag::NodeId node,
                                          const Processor& proc) const {
  if (&dag != dag_ || node >= dag_->node_count() || proc.id >= proc_count_)
    return base_.exec_time_ms(dag, node, proc);
  return exec_[node * proc_count_ + proc.id];
}

void PrecomputedCostModel::exec_row_ms(const dag::Dag& dag, dag::NodeId node,
                                       const std::vector<Processor>& procs,
                                       TimeMs* out) const {
  if (&dag != dag_ || node >= dag_->node_count())
    return base_.exec_row_ms(dag, node, procs, out);
  const TimeMs* row = exec_row(node);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    out[i] = procs[i].id < proc_count_
                 ? row[procs[i].id]
                 : base_.exec_time_ms(dag, node, procs[i]);
  }
}

double PrecomputedCostModel::edge_weight(const dag::Dag& dag, dag::NodeId src,
                                         dag::NodeId dst) const {
  return base_.edge_weight(dag, src, dst);
}

PairTables PrecomputedCostModel::pair_tables(
    const std::vector<Processor>& procs) const {
  return base_.pair_tables(procs);
}

std::size_t PrecomputedCostModel::out_edge_index(dag::NodeId src,
                                                 dag::NodeId dst) const {
  const auto& succs = dag_->successors(src);
  return static_cast<std::size_t>(
      std::find(succs.begin(), succs.end(), dst) - succs.begin());
}

const PrecomputedCostModel& dense_cost_model(
    const dag::Dag& dag, const System& system, const CostModel& cost,
    std::optional<PrecomputedCostModel>& storage) {
  const auto* dense = dynamic_cast<const PrecomputedCostModel*>(&cost);
  if (dense != nullptr && dense->covers(dag, system.proc_count()))
    return *dense;
  return storage.emplace(dag, system, cost);
}

}  // namespace apt::sim
