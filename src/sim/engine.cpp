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
  std::optional<PrecomputedCostModel> local;
  return stream::detail::run_closed(
      dag_, system_, dense_cost_model(dag_, system_, cost_, local), options_,
      policy);
}

}  // namespace apt::sim
