#include "sim/engine.hpp"

#include <utility>

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
  // No dense table here: the core copies exec rows and prices transfers
  // from pair tables, and the static planners densify for themselves
  // (sim::dense_cost_model reuses a table the caller already built).
  return stream::detail::run_closed(dag_, system_, cost_, options_, policy);
}

}  // namespace apt::sim
