// The closed-system simulation: one DAG, everything submitted at time
// zero, judged by makespan (the thesis's experiments).
//
// Drives a Policy over a DAG on a System with a CostModel and produces the
// per-kernel schedule. There is one event core in the simulator, the
// stream engine's (src/stream/stream_engine.cpp); run() is a closed-mode
// run of it: the DAG is the only instance, admitted at t = 0 as arrival 0
// and borrowed for the run, so a single-arrival stream and this engine
// share every line of the kernel lifecycle. Static policies (HEFT, PEFT,
// ranked APT) are allowed, SchedulerContext::dag() returns the DAG, and
// every kernel, transfer, and hedge record lands in the SimResult.
// Deterministic: identical inputs give identical results (events at equal
// timestamps are processed in ascending node id).
//
// Communication: under the default ideal topology, transfer stalls are the
// cost model's analytic point-to-point times (uncontended — the paper's
// model). When the system carries a contended net::Topology, each
// non-local input edge becomes a sized message through a
// net::TransferManager (fair bandwidth sharing on shared links): the
// policy's commitment fixes the destination and starts the messages at the
// kernel's dispatch instant, the processor is held through the stall, and
// execution begins when the last message lands. Every message is recorded
// in SimResult::transfers for validation and link metrics. Static policies'
// prefetch assumption cannot hold on a contended fabric (data cannot move
// retroactively), so their plans become estimates — which is the point.
#pragma once

#include "dag/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/noise.hpp"
#include "sim/policy.hpp"
#include "sim/schedule.hpp"
#include "sim/system.hpp"

namespace apt::obs {
class Profile;
class TraceSink;
}  // namespace apt::obs

namespace apt::sim {

/// Optional stochastic extensions of one run. Defaults are all-off, which
/// reproduces the deterministic timelines bit-for-bit.
struct EngineOptions {
  /// Service-time noise on realized execution times (policies keep seeing
  /// nominal costs). A closed run draws noise instance 0, so a
  /// single-instance stream run sees the same multipliers.
  NoiseSpec noise;
  /// Straggler hedging (replica races). Requires an uncontended topology:
  /// a replica's input transfers would need their own fabric messages,
  /// which the comm phase does not model.
  HedgeSpec hedging;

  /// Observability (src/obs), both null by default and provably inert:
  /// every emission site is a null-guarded read of already-committed
  /// simulation facts, so attaching either cannot change a simulated bit
  /// or consume an RNG draw. The pointees must outlive run().
  obs::TraceSink* sink = nullptr;
  obs::Profile* profile = nullptr;
};

/// Runs one simulation. The referenced dag/system/cost model must outlive
/// the call to run().
class Engine {
 public:
  Engine(const dag::Dag& dag, const System& system, const CostModel& cost);
  Engine(const dag::Dag& dag, const System& system, const CostModel& cost,
         EngineOptions options);

  /// Simulates the policy to completion and returns the schedule.
  /// Throws std::logic_error if the policy stalls (makes no assignment
  /// while work remains and all processors are idle), and
  /// std::invalid_argument on a bad options spec or on hedging over a
  /// contended topology.
  SimResult run(Policy& policy);

 private:
  const dag::Dag& dag_;
  const System& system_;
  const CostModel& cost_;
  EngineOptions options_;
};

}  // namespace apt::sim
