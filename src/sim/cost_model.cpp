#include "sim/cost_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace apt::sim {

namespace {

/// A local pair's price: any finite weight moves in 0 ms.
constexpr PairPrice kLocalPrice{0.0, std::numeric_limits<double>::infinity()};

/// Pair tables over `procs` with `price(from, to)` for every pair of
/// distinct processors and the local price on the diagonal.
template <typename Price>
PairTables make_pair_tables(const std::vector<Processor>& procs, Price price) {
  PairTables tables;
  tables.proc_count = procs.size();
  tables.prices.reserve(procs.size() * procs.size());
  for (const Processor& from : procs) {
    for (const Processor& to : procs)
      tables.prices.push_back(from.id == to.id ? kLocalPrice : price(from, to));
  }
  return tables;
}

}  // namespace

void CostModel::exec_row_ms(const dag::Dag& dag, dag::NodeId node,
                            const std::vector<Processor>& procs,
                            TimeMs* out) const {
  for (std::size_t i = 0; i < procs.size(); ++i)
    out[i] = exec_time_ms(dag, node, procs[i]);
}

LutCostModel::LutCostModel(lut::LookupTable table, const System& system,
                           bool strict)
    : table_(std::move(table)),
      link_rate_gbps_(system.config().link_rate_gbps),
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

double LutCostModel::edge_weight(const dag::Dag& dag, dag::NodeId src,
                                 dag::NodeId dst) const {
  (void)dst;  // the producing node's output size determines the payload
  return edge_payload_bytes(dag, src, bytes_per_element_);
}

PairTables LutCostModel::pair_tables(
    const std::vector<Processor>& procs) const {
  // GB/s == bytes/ns: a payload takes bytes / (rate_GBps * 1e6) ms.
  const double rate = link_rate_gbps_ * 1e6;
  return make_pair_tables(procs, [rate](const Processor&, const Processor&) {
    return PairPrice{0.0, rate};
  });
}

TopologyCostModel::TopologyCostModel(const CostModel& base,
                                     const System& system)
    : base_(base), system_(system) {}

TimeMs TopologyCostModel::exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                                       const Processor& proc) const {
  return base_.exec_time_ms(dag, node, proc);
}

double TopologyCostModel::edge_weight(const dag::Dag& dag, dag::NodeId src,
                                      dag::NodeId dst) const {
  (void)dst;  // the producing node's output size determines the payload
  return edge_payload_bytes(dag, src, system_.config().bytes_per_element);
}

PairTables TopologyCostModel::pair_tables(
    const std::vector<Processor>& procs) const {
  const net::Topology& topology = system_.topology();
  // Head latency + bytes / (bottleneck rate_GBps * 1e6); local routes are
  // free.
  const auto price = [&topology](const Processor& from, const Processor& to) {
    if (topology.is_local(from.id, to.id)) return kLocalPrice;
    const double gbps = topology.route_bandwidth_gbps(from.id, to.id);
    return PairPrice{topology.route_latency_ms(from.id, to.id), gbps * 1e6};
  };
  return make_pair_tables(procs, price);
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
  if (!std::isfinite(cost) || cost < 0.0)
    throw std::invalid_argument(
        "MatrixCostModel: communication cost must be finite and >= 0");
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

double MatrixCostModel::edge_weight(const dag::Dag& dag, dag::NodeId src,
                                    dag::NodeId dst) const {
  (void)dag;
  const auto it = comm_.find({src, dst});
  return it == comm_.end() ? 0.0 : it->second;
}

PairTables MatrixCostModel::pair_tables(
    const std::vector<Processor>& procs) const {
  return make_pair_tables(procs, [](const Processor&, const Processor&) {
    return PairPrice{0.0, 1.0};
  });
}

}  // namespace apt::sim
