// Internal: how sim::Engine::run reaches the stream engine's event core.
// Not public API — only src/sim/engine.cpp includes this header.
#pragma once

#include "dag/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "sim/schedule.hpp"
#include "sim/system.hpp"

namespace apt::stream::detail {

/// Closed-mode run of the event core: `dag` is the only instance, admitted
/// at t = 0 as arrival 0 and borrowed, not copied. `cost` is the base model
/// whose rows fill the exec slabs and whose pair tables price transfers
/// (sim::Engine hands its own model through). Static policies are allowed
/// and SchedulerContext::dag() returns `dag`. Every kernel, transfer, and
/// hedge record lands in the result; no lifecycle instant,
/// arrival/retirement count, lower bound, or stream metric is produced.
/// Calls policy.prepare() even for an empty DAG.
sim::SimResult run_closed(const dag::Dag& dag, const sim::System& system,
                          const sim::CostModel& cost,
                          const sim::EngineOptions& options,
                          sim::Policy& policy);

}  // namespace apt::stream::detail
