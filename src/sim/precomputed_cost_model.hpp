// Densified cost model: flattens a base CostModel's node×processor execution
// times and its edge weights into contiguous arrays, built once per (dag,
// system) pair.
//
// The paper's LutCostModel resolves every exec_time_ms through a
// map<(kernel, size)> keyed by strings; the engine and the policies query it
// thousands of times per run with the same arguments. This adapter pays the
// map cost exactly once per node (one exec_row_ms) and once per edge (one
// edge_weight call per direction), keeps the base's pair tables, and serves
// every later query from a flat vector. An edge's transfer price is
// prices().transfer_ms(weight, from, to), priced on read from the stored
// weight: the same `latency + weight / rate` the event core charges, so the
// static planners plan from exactly its prices, and the table grows with
// n·P + E, not with E·P². Values are the base model's own doubles, so
// results are bit-identical to querying the base directly.
//
// Execution-time queries about a *different* dag (or out-of-range
// processors) fall back to the base model.
//
// The static planners (HEFT, PEFT, APT-Ranked's ranks) read the tables
// directly: dense_cost_model() finds or builds the table for a run, and
// exec_row() / out_weights() / in_weights() expose its rows without a
// virtual call or an edge search per query. The event core needs no dense
// table: it copies exec rows at admission and prices transfers from the
// base model's pair tables, which this adapter passes through.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "dag/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/system.hpp"

namespace apt::sim {

class PrecomputedCostModel final : public CostModel {
 public:
  /// Builds the dense tables from `base`: every node's exec row, every
  /// edge's weight in successor and in predecessor order, and the base's
  /// pair tables over the system's processors. The dag, system, and base
  /// model must outlive this object.
  PrecomputedCostModel(const dag::Dag& dag, const System& system,
                       const CostModel& base);

  TimeMs exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                      const Processor& proc) const override;
  /// A copy of the stored row for the dense dag.
  void exec_row_ms(const dag::Dag& dag, dag::NodeId node,
                   const std::vector<Processor>& procs,
                   TimeMs* out) const override;
  /// The base model's: the stored weights are its answers.
  double edge_weight(const dag::Dag& dag, dag::NodeId src,
                     dag::NodeId dst) const override;
  PairTables pair_tables(const std::vector<Processor>& procs) const override;

  const CostModel& base() const noexcept { return base_; }

  /// Whether the tables were built for this very dag object on
  /// `proc_count` processors, so that every query about it is a table read.
  bool covers(const dag::Dag& dag, std::size_t proc_count) const noexcept {
    return &dag == dag_ && proc_count == proc_count_;
  }
  std::size_t proc_count() const noexcept { return proc_count_; }

  /// exec_time_ms of `node` on processors 0 .. proc_count() - 1.
  const TimeMs* exec_row(dag::NodeId node) const noexcept {
    return exec_.data() + node * proc_count_;
  }
  /// The base's pair tables over processors 0 .. proc_count() - 1: an edge
  /// of weight w moves from `from` to `to` in prices().transfer_ms(w, from,
  /// to).
  const PairTables& prices() const noexcept { return prices_; }
  /// edge_weight of `src`'s out-edges, in the order of successors(src).
  const double* out_weights(dag::NodeId src) const noexcept {
    return out_weight_.data() + out_offset_[src];
  }
  /// edge_weight of `dst`'s in-edges, in the order of predecessors(dst).
  const double* in_weights(dag::NodeId dst) const noexcept {
    return in_weight_.data() + in_offset_[dst];
  }

  /// w̄: the mean of `node`'s execution times over every processor.
  TimeMs mean_exec_ms(dag::NodeId node) const noexcept {
    const TimeMs* row = exec_row(node);
    double sum = 0.0;
    for (std::size_t p = 0; p < proc_count_; ++p) sum += row[p];
    return sum / static_cast<double>(proc_count_);
  }
  /// c̄: the mean transfer time of an edge of weight `weight` over every
  /// ordered pair of *distinct* processors, summed from-major; 0 on one
  /// processor. The average communication cost of the HEFT and PEFT ranks.
  TimeMs mean_transfer_ms(double weight) const noexcept {
    if (proc_count_ < 2) return 0.0;
    double sum = 0.0;
    for (ProcId from = 0; from < proc_count_; ++from) {
      for (ProcId to = 0; to < proc_count_; ++to) {
        if (from != to) sum += prices_.transfer_ms(weight, from, to);
      }
    }
    return sum / static_cast<double>(proc_count_ * (proc_count_ - 1));
  }

 private:
  const dag::Dag* dag_;
  const CostModel& base_;
  std::size_t proc_count_;
  PairTables prices_;
  std::vector<TimeMs> exec_;  ///< [node * P + proc]
  /// node -> first entry of its out-/in-edges in out_weight_/in_weight_.
  std::vector<std::uint32_t> out_offset_;
  std::vector<std::uint32_t> in_offset_;
  std::vector<double> out_weight_;  ///< [out_offset_[src] + k]
  std::vector<double> in_weight_;   ///< [in_offset_[dst] + k]
};

/// The dense table for a run over `dag` on `system`: `cost` itself when it
/// is a PrecomputedCostModel that covers them, else a new one over `cost`,
/// built into `storage`. Either way its reads equal `cost`'s own answers.
const PrecomputedCostModel& dense_cost_model(
    const dag::Dag& dag, const System& system, const CostModel& cost,
    std::optional<PrecomputedCostModel>& storage);

}  // namespace apt::sim
