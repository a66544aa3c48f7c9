#include "sim/cost_model.hpp"

#include <stdexcept>

namespace apt::sim {

void CostModel::exec_row_ms(const dag::Dag& dag, dag::NodeId node,
                            const std::vector<Processor>& procs,
                            TimeMs* out) const {
  for (std::size_t i = 0; i < procs.size(); ++i)
    out[i] = exec_time_ms(dag, node, procs[i]);
}

LutCostModel::LutCostModel(lut::LookupTable table, const System& system,
                           bool strict)
    : table_(std::move(table)),
      interconnect_(system.interconnect()),
      bytes_per_element_(system.config().bytes_per_element),
      strict_(strict) {
  if (table_.empty())
    throw std::invalid_argument("LutCostModel: empty lookup table");
}

const lut::Entry& LutCostModel::entry_for(const dag::Dag& dag,
                                          dag::NodeId node) const {
  const dag::Node& n = dag.node(node);
  // dag::Dag::add_node stored the canonical name, so one raw probe is
  // exact; only an off-grid size takes the canonicalising slow path.
  if (const lut::Entry* e = table_.find(n.kernel, n.data_size)) return *e;
  return strict_ ? table_.at(n.kernel, n.data_size)
                 : table_.nearest(n.kernel, n.data_size);
}

TimeMs LutCostModel::exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                                  const Processor& proc) const {
  return entry_for(dag, node).time(proc.type);
}

void LutCostModel::exec_row_ms(const dag::Dag& dag, dag::NodeId node,
                               const std::vector<Processor>& procs,
                               TimeMs* out) const {
  const lut::Entry& entry = entry_for(dag, node);
  for (std::size_t i = 0; i < procs.size(); ++i)
    out[i] = entry.time(procs[i].type);
}

TimeMs LutCostModel::transfer_time_ms(const dag::Dag& dag, dag::NodeId src,
                                      dag::NodeId dst, const Processor& from,
                                      const Processor& to) const {
  (void)dst;  // the producing node's output size determines the payload
  if (from.id == to.id) return 0.0;
  return interconnect_.transfer_time_ms(
      edge_payload_bytes(dag, src, bytes_per_element_), from.id, to.id);
}

TopologyCostModel::TopologyCostModel(const CostModel& base,
                                     const System& system)
    : base_(base), system_(system) {}

TimeMs TopologyCostModel::exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                                       const Processor& proc) const {
  return base_.exec_time_ms(dag, node, proc);
}

TimeMs TopologyCostModel::transfer_time_ms(const dag::Dag& dag,
                                           dag::NodeId src, dag::NodeId dst,
                                           const Processor& from,
                                           const Processor& to) const {
  (void)dst;  // the producing node's output size determines the payload
  if (from.id == to.id) return 0.0;
  return system_.topology().transfer_time_ms(
      edge_payload_bytes(dag, src, system_.config().bytes_per_element),
      from.id, to.id);
}

MatrixCostModel::MatrixCostModel(std::vector<std::vector<TimeMs>> exec)
    : exec_(std::move(exec)) {
  if (exec_.empty())
    throw std::invalid_argument("MatrixCostModel: empty execution matrix");
  const std::size_t cols = exec_.front().size();
  if (cols == 0)
    throw std::invalid_argument("MatrixCostModel: zero processors");
  for (const auto& row : exec_) {
    if (row.size() != cols)
      throw std::invalid_argument("MatrixCostModel: ragged execution matrix");
  }
}

void MatrixCostModel::set_comm_cost(dag::NodeId src, dag::NodeId dst,
                                    TimeMs cost) {
  if (cost < 0.0)
    throw std::invalid_argument("MatrixCostModel: negative communication cost");
  comm_[{src, dst}] = cost;
}

TimeMs MatrixCostModel::exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                                     const Processor& proc) const {
  (void)dag;
  if (node >= exec_.size())
    throw std::out_of_range("MatrixCostModel: node beyond matrix rows");
  const auto& row = exec_[node];
  if (proc.id >= row.size())
    throw std::out_of_range("MatrixCostModel: processor beyond matrix columns");
  return row[proc.id];
}

TimeMs MatrixCostModel::transfer_time_ms(const dag::Dag& dag, dag::NodeId src,
                                         dag::NodeId dst,
                                         const Processor& from,
                                         const Processor& to) const {
  (void)dag;
  if (from.id == to.id) return 0.0;
  const auto it = comm_.find({src, dst});
  return it == comm_.end() ? 0.0 : it->second;
}

}  // namespace apt::sim
