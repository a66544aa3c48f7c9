// Test-only reference: the per-edge transfer price of every cost model,
// written out per model from the system it runs on. The shipped models
// price an edge only as `pair_tables(procs).transfer_ms(edge_weight(...))`;
// the cost-model suites hold those tables, and the prices the static
// planners read from a dense model's stored edge weights, to these formulas
// bit for bit, and the frozen reference engine and planners price their
// edges with them.
#pragma once

#include <algorithm>
#include <stdexcept>

#include "dag/graph.hpp"
#include "net/topology.hpp"
#include "sim/cost_model.hpp"
#include "sim/precomputed_cost_model.hpp"
#include "sim/system.hpp"

namespace apt::test {

/// Milliseconds to move the data of edge src -> dst from `from` to `to`
/// under `cost` on `system`, where a payload is the producer's data_size
/// elements at the system's bytes_per_element:
///  * LutCostModel: 0 when from == to, else the payload over the system's
///    link rate;
///  * TopologyCostModel: 0 when the route is empty, else the route's head
///    latency (its hops' latencies summed in route order) plus the payload
///    over its bottleneck (minimum) link bandwidth;
///  * MatrixCostModel: 0 when from == to, else the edge's cost;
///  * PrecomputedCostModel: its base model's price.
/// Throws std::logic_error on any other model.
inline sim::TimeMs reference_transfer_ms(const sim::CostModel& cost,
                                         const sim::System& system,
                                         const dag::Dag& dag, dag::NodeId src,
                                         dag::NodeId dst,
                                         const sim::Processor& from,
                                         const sim::Processor& to) {
  const auto* dense = dynamic_cast<const sim::PrecomputedCostModel*>(&cost);
  if (dense != nullptr)
    return reference_transfer_ms(dense->base(), system, dag, src, dst, from,
                                 to);
  if (from.id == to.id) return 0.0;
  // GB/s == bytes/ns; ms = bytes / (rate_GBps * 1e6).
  const double payload = static_cast<double>(dag.node(src).data_size) *
                         system.config().bytes_per_element;
  if (dynamic_cast<const sim::LutCostModel*>(&cost) != nullptr)
    return payload / (system.config().link_rate_gbps * 1e6);
  if (dynamic_cast<const sim::TopologyCostModel*>(&cost) != nullptr) {
    const net::Topology& topology = system.topology();
    const net::Topology::Route route = topology.route(from.id, to.id);
    if (route.empty()) return 0.0;
    sim::TimeMs latency = 0.0;
    double gbps = topology.bandwidth_gbps(route[0]);
    for (const net::LinkId link : route) {
      latency += topology.latency_ms(link);
      gbps = std::min(gbps, topology.bandwidth_gbps(link));
    }
    return latency + payload / (gbps * 1e6);
  }
  if (dynamic_cast<const sim::MatrixCostModel*>(&cost) != nullptr)
    return cost.edge_weight(dag, src, dst);
  throw std::logic_error("reference_transfer_ms: unknown cost model");
}

}  // namespace apt::test
