// Densified cost model: flattens a base CostModel's node×processor execution
// times and edge×processor-pair transfer times into contiguous arrays, built
// once per (dag, system) pair.
//
// The paper's LutCostModel resolves every exec_time_ms through a
// map<(kernel, size)> keyed by strings; the engine and the policies query it
// thousands of times per run with the same arguments. This adapter pays the
// map cost exactly once per node (one exec_row_ms) and per (edge, from, to)
// combination, and serves every later query from a flat vector. Values are
// the base model's own doubles, so results are bit-identical to querying
// the base directly.
//
// Queries about a *different* dag (or out-of-range processors) fall back to
// the base model, so the adapter can be handed to code that mixes graphs.
#pragma once

#include <vector>

#include "dag/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/system.hpp"

namespace apt::sim {

class PrecomputedCostModel final : public CostModel {
 public:
  /// Builds the dense tables by querying `base` for every node's exec row
  /// and every edge over every ordered processor pair. The dag,
  /// system, and base model must outlive this object.
  PrecomputedCostModel(const dag::Dag& dag, const System& system,
                       const CostModel& base);

  TimeMs exec_time_ms(const dag::Dag& dag, dag::NodeId node,
                      const Processor& proc) const override;
  TimeMs transfer_time_ms(const dag::Dag& dag, dag::NodeId src,
                          dag::NodeId dst, const Processor& from,
                          const Processor& to) const override;

  const CostModel& base() const noexcept { return base_; }

 private:
  const dag::Dag* dag_;
  const CostModel& base_;
  std::size_t proc_count_;
  std::vector<TimeMs> exec_;           ///< [node * P + proc]
  std::vector<std::size_t> edge_offset_;  ///< node -> first slot of its out-edges
  std::vector<TimeMs> transfer_;       ///< [edge_slot * P * P + from * P + to]
};

}  // namespace apt::sim
