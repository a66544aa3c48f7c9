// Densified cost model: flattens a base CostModel's node×processor execution
// times and edge×processor-pair transfer times into contiguous arrays, built
// once per (dag, system) pair.
//
// The paper's LutCostModel resolves every exec_time_ms through a
// map<(kernel, size)> keyed by strings; the engine and the policies query it
// thousands of times per run with the same arguments. This adapter pays the
// map cost exactly once per node (one exec_row_ms) and prices each out-edge
// once per processor pair from one edge_weight call and the base's pair
// tables, and serves every later query from a flat vector. Values are the
// base model's own doubles, so results are bit-identical to querying the
// base directly, and the static planners plan from exactly the prices the
// event core charges.
//
// Execution-time queries about a *different* dag (or out-of-range
// processors) fall back to the base model.
//
// The static planners (HEFT, PEFT, APT-Ranked's ranks) read the tables
// directly: dense_cost_model() finds or builds the table for a run, and
// exec_row() / out_edge_transfers() expose its rows without a virtual call
// or an edge search per query. The event core needs no dense table: it
// copies exec rows at admission and prices transfers from the base model's
// pair tables, which this adapter passes through.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dag/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/system.hpp"

namespace apt::sim {

class PrecomputedCostModel final : public CostModel {
 public:
  /// Builds the dense tables from `base`: every node's exec row, and every
  /// edge's weight priced over every ordered processor pair by the base's
  /// pair tables. The dag, system, and base model must outlive this object.
  PrecomputedCostModel(const dag::Dag& dag, const System& system,
                       const CostModel& base);

  TimeMs exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                      const Processor& proc) const override;
  /// A copy of the stored row for the dense dag.
  void exec_row_ms(const dag::Dag& dag, dag::NodeId node,
                   const std::vector<Processor>& procs,
                   TimeMs* out) const override;
  /// The base model's: the dense transfer tables hold its prices.
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
  /// The position k of `dst` among the dense dag's successors of `src`;
  /// out_degree(src) when src -> dst is not an edge.
  std::size_t out_edge_index(dag::NodeId src, dag::NodeId dst) const;
  /// The transfer prices of the edge to `src`'s k-th successor, as a P x P
  /// matrix indexed [from * P + to].
  const TimeMs* out_edge_transfers(dag::NodeId src,
                                   std::size_t k) const noexcept {
    return transfer_.data() +
           (edge_offset_[src] + k) * proc_count_ * proc_count_;
  }

  /// w̄: the mean of `node`'s execution times over every processor.
  TimeMs mean_exec_ms(dag::NodeId node) const noexcept {
    const TimeMs* row = exec_row(node);
    double sum = 0.0;
    for (std::size_t p = 0; p < proc_count_; ++p) sum += row[p];
    return sum / static_cast<double>(proc_count_);
  }
  /// c̄: the mean transfer time of `src`'s k-th out-edge over every ordered
  /// pair of *distinct* processors, summed from-major; 0 on one processor.
  /// The average communication cost of the HEFT and PEFT ranks.
  TimeMs mean_transfer_ms(dag::NodeId src, std::size_t k) const noexcept {
    if (proc_count_ < 2) return 0.0;
    const TimeMs* matrix = out_edge_transfers(src, k);
    double sum = 0.0;
    for (std::size_t from = 0; from < proc_count_; ++from) {
      for (std::size_t to = 0; to < proc_count_; ++to) {
        if (from != to) sum += matrix[from * proc_count_ + to];
      }
    }
    return sum / static_cast<double>(proc_count_ * (proc_count_ - 1));
  }

 private:
  const dag::Dag* dag_;
  const CostModel& base_;
  std::size_t proc_count_;
  std::vector<TimeMs> exec_;           ///< [node * P + proc]
  std::vector<std::size_t> edge_offset_;  ///< node -> first slot of its out-edges
  std::vector<TimeMs> transfer_;       ///< [edge_slot * P * P + from * P + to]
};

/// The dense table for a run over `dag` on `system`: `cost` itself when it
/// is a PrecomputedCostModel that covers them, else a new one over `cost`,
/// built into `storage`. Either way its reads equal `cost`'s own answers.
const PrecomputedCostModel& dense_cost_model(
    const dag::Dag& dag, const System& system, const CostModel& cost,
    std::optional<PrecomputedCostModel>& storage);

}  // namespace apt::sim
