#include "sim/engine.hpp"

#include <optional>
#include <utility>

#include "sim/precomputed_cost_model.hpp"
#include "stream/closed_run.hpp"

namespace apt::sim {

Engine::Engine(const dag::Dag& dag, const System& system,
               const CostModel& cost)
    : dag_(dag), system_(system), cost_(cost) {}

Engine::Engine(const dag::Dag& dag, const System& system,
               const CostModel& cost, EngineOptions options)
    : dag_(dag), system_(system), cost_(cost), options_(std::move(options)) {}

SimResult Engine::run(Policy& policy) {
  options_.noise.validate();
  options_.hedging.validate();
  // Densify the cost model once per run unless the caller already did. The
  // dense model answers by the DAG's address, which the closed run borrows.
  const auto* pre = dynamic_cast<const PrecomputedCostModel*>(&cost_);
  std::optional<PrecomputedCostModel> local;
  if (pre == nullptr) pre = &local.emplace(dag_, system_, cost_);
  return stream::detail::run_closed(dag_, system_, *pre, options_, policy);
}

}  // namespace apt::sim
