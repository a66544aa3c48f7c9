// Cost models: how long a kernel takes on a processor and how long data
// takes to move between processors.
//
// Two implementations:
//  * LutCostModel    — the paper's model: execution times from the lookup
//    table keyed by processor *category*, transfers = elements × bytes/elem
//    over the uniform PCIe link rate.
//  * MatrixCostModel — explicit per-node/per-processor computation matrix and
//    per-edge communication costs, as used in the HEFT/PEFT literature
//    examples (enables golden tests against published schedules).
//
// Every model prices an edge one way: as a weight moved between a processor
// pair, pair_tables(procs).transfer_ms(edge_weight(dag, src, dst), from, to).
// The event core resolves the weights once per instance at admission and
// the tables once per run, so its per-kernel transfer reads are a table
// lookup; the static planners read the same prices from a
// PrecomputedCostModel's dense per-edge matrices.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "dag/graph.hpp"
#include "lut/lookup_table.hpp"
#include "sim/system.hpp"

namespace apt::sim {

/// Payload of the edge out of `src`: the producer's output, data_size
/// elements at `bytes_per_element` bytes each. The one formula the
/// payload-priced cost models share: the event core takes both its
/// transfer prices and its fabric message sizes from their edge_weight, so
/// the two would silently desynchronize if the models computed it
/// differently.
inline double edge_payload_bytes(const dag::Dag& dag, dag::NodeId src,
                                 double bytes_per_element) {
  return static_cast<double>(dag.node(src).data_size) * bytes_per_element;
}

/// One processor pair's transfer price: moving a weight `w` costs
/// latency_ms + w / rate.
struct PairPrice {
  TimeMs latency_ms = 0.0;
  double rate = 0.0;  ///< weight per ms (bytes/ms for payload weights)
};

/// A run's transfer prices over P processors, indexed [from * P + to]. A
/// local pair (same processor, or a route with no links) is latency 0 and
/// rate +inf, so any finite weight moves in 0 ms.
struct PairTables {
  std::size_t proc_count = 0;
  std::vector<PairPrice> prices;

  TimeMs transfer_ms(double weight, ProcId from, ProcId to) const noexcept {
    const PairPrice& p = prices[from * proc_count + to];
    return p.latency_ms + weight / p.rate;
  }
};

/// Abstract interface consumed by every policy and by the engine.
class CostModel {
 public:
  virtual ~CostModel() = default;

  /// Execution time of `node` on processor instance `proc`.
  virtual TimeMs exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                              const Processor& proc) const = 0;

  /// Execution times of `node` on every processor of `procs`:
  /// `out[i] = exec_time_ms(dag, node, procs[i])`, bit for bit. The default
  /// loops over exec_time_ms; models that resolve a whole row at once (one
  /// lookup-table entry per kernel) override it.
  virtual void exec_row_ms(const dag::Dag& dag, dag::NodeId node,
                           const std::vector<Processor>& procs,
                           TimeMs* out) const;

  /// The weight of edge src -> dst that pair_tables() prices: the
  /// producer's payload bytes (edge_payload_bytes) for every model but
  /// MatrixCostModel, whose weight is the edge's own communication cost.
  virtual double edge_weight(const dag::Dag& dag, dag::NodeId src,
                             dag::NodeId dst) const = 0;

  /// The transfer prices between every ordered pair of `procs` (indexed by
  /// position): moving edge src -> dst from procs[f] to procs[t] costs
  /// `pair_tables(procs).transfer_ms(edge_weight(dag, src, dst), f, t)`,
  /// 0 when f == t.
  virtual PairTables pair_tables(const std::vector<Processor>& procs) const = 0;
};

/// The paper's cost model (lookup table + PCIe links).
///
/// Holds a copy of the (small) lookup table and the system's link rate so
/// its lifetime is independent of the objects it was built from.
class LutCostModel final : public CostModel {
 public:
  /// `strict` controls behaviour for (kernel, size) pairs missing from the
  /// table: throw (true, default) or fall back to the nearest measured size
  /// (false) — useful when replaying traces with odd sizes.
  LutCostModel(lut::LookupTable table, const System& system,
               bool strict = true);

  TimeMs exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                      const Processor& proc) const override;
  /// One table entry lookup for the whole row.
  void exec_row_ms(const dag::Dag& dag, dag::NodeId node,
                   const std::vector<Processor>& procs,
                   TimeMs* out) const override;
  double edge_weight(const dag::Dag& dag, dag::NodeId src,
                     dag::NodeId dst) const override;
  /// Latency 0 and the system's link rate in bytes/ms.
  PairTables pair_tables(const std::vector<Processor>& procs) const override;

  const lut::LookupTable& table() const noexcept { return table_; }

 private:
  const lut::Entry& entry_for(const dag::Dag& dag, dag::NodeId node) const;

  lut::LookupTable table_;
  double link_rate_gbps_;
  double bytes_per_element_;
  bool strict_;
};

/// Topology-aware adapter: execution times from a base model, transfer
/// times from the system's net::Topology (uncontended estimate: latency +
/// bytes / link bandwidth, 0 for local pairs). Under a contended topology
/// the engines hand this to the policies, so static planners (HEFT/PEFT)
/// price edges against the actual fabric and dynamic policies' transfer
/// queries reflect it too. The base model, system, and their referents
/// must outlive the adapter.
class TopologyCostModel final : public CostModel {
 public:
  TopologyCostModel(const CostModel& base, const System& system);

  TimeMs exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                      const Processor& proc) const override;
  double edge_weight(const dag::Dag& dag, dag::NodeId src,
                     dag::NodeId dst) const override;
  /// Each route's head latency and bottleneck rate in bytes/ms.
  PairTables pair_tables(const std::vector<Processor>& procs) const override;

  const CostModel& base() const noexcept { return base_; }

 private:
  const CostModel& base_;
  const System& system_;
};

/// Literature-style cost matrices for controlled tests.
class MatrixCostModel final : public CostModel {
 public:
  /// `exec[node][proc]` — execution times; rows must match the DAG's node
  /// count at query time, columns the system's processor count.
  explicit MatrixCostModel(std::vector<std::vector<TimeMs>> exec);

  /// Sets the single inter-processor communication cost of edge src -> dst
  /// (applied whenever from != to; 0 otherwise) — the model of the HEFT
  /// paper's Figure 2 example. Throws std::invalid_argument unless `cost`
  /// is finite and >= 0.
  void set_comm_cost(dag::NodeId src, dag::NodeId dst, TimeMs cost);

  TimeMs exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                      const Processor& proc) const override;
  /// The edge's communication cost (0 when unset).
  double edge_weight(const dag::Dag& dag, dag::NodeId src,
                     dag::NodeId dst) const override;
  /// Latency 0 and rate 1 between distinct processors: the weight is the
  /// cost itself.
  PairTables pair_tables(const std::vector<Processor>& procs) const override;

 private:
  std::vector<std::vector<TimeMs>> exec_;
  std::map<std::pair<dag::NodeId, dag::NodeId>, TimeMs> comm_;
};

}  // namespace apt::sim
