#include "sim/precomputed_cost_model.hpp"

namespace apt::sim {

PrecomputedCostModel::PrecomputedCostModel(const dag::Dag& dag,
                                           const System& system,
                                           const CostModel& base)
    : dag_(&dag),
      base_(base),
      proc_count_(system.proc_count()),
      prices_(base.pair_tables(system.processors())) {
  const std::size_t n = dag.node_count();
  const std::size_t p = proc_count_;

  exec_.resize(n * p);
  for (dag::NodeId node = 0; node < n; ++node)
    base.exec_row_ms(dag, node, system.processors(), exec_.data() + node * p);

  // Dag::add_edge keeps the edge count below 2^32, so 32-bit offsets hold.
  out_offset_.reserve(n + 1);
  in_offset_.reserve(n + 1);
  out_weight_.reserve(dag.edge_count());
  in_weight_.reserve(dag.edge_count());
  for (dag::NodeId node = 0; node < n; ++node) {
    out_offset_.push_back(static_cast<std::uint32_t>(out_weight_.size()));
    for (const dag::NodeId dst : dag.successors(node))
      out_weight_.push_back(base.edge_weight(dag, node, dst));
    in_offset_.push_back(static_cast<std::uint32_t>(in_weight_.size()));
    for (const dag::NodeId src : dag.predecessors(node))
      in_weight_.push_back(base.edge_weight(dag, src, node));
  }
  out_offset_.push_back(static_cast<std::uint32_t>(out_weight_.size()));
  in_offset_.push_back(static_cast<std::uint32_t>(in_weight_.size()));
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

const PrecomputedCostModel& dense_cost_model(
    const dag::Dag& dag, const System& system, const CostModel& cost,
    std::optional<PrecomputedCostModel>& storage) {
  const auto* dense = dynamic_cast<const PrecomputedCostModel*>(&cost);
  if (dense != nullptr && dense->covers(dag, system.proc_count()))
    return *dense;
  return storage.emplace(dag, system, cost);
}

}  // namespace apt::sim
