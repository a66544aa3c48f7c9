// Schedule validation: the correctness invariants every policy must satisfy.
// Used heavily by the test suite's property checks and available to library
// users for auditing custom policies.
#pragma once

#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/schedule.hpp"
#include "sim/system.hpp"

namespace apt::sim {

/// One violated invariant.
struct Violation {
  std::string message;
};

/// Checks a finished schedule. It is validate_stream_schedule's per-app
/// check of one application arriving at 0, plus the two checks that need
/// the cost model and the makespan:
///  * every kernel assigned exactly once to a valid processor;
///  * per-kernel timeline sane (release <= ready <= assign <= exec_start <=
///    finish, finish == exec_start + exec_ms, noise multiplier > 0);
///  * precedence: a kernel never starts executing before all predecessors
///    finished;
///  * exclusivity: occupation intervals [assign, finish) of kernels sharing
///    a processor never overlap — including the cancelled losing attempts
///    of hedged kernels, whose processors are only free again after the
///    cancellation instant;
///  * exec_ms matches the cost model × the kernel's recorded noise
///    multiplier (exactly the cost model when noise is off);
///  * hedge records are coherent: at most one episode per kernel, valid
///    distinct processors, the schedule entry describes the winning
///    attempt, exactly one attempt wins (the loser is cancelled at the
///    winner's finish — never after, so wasted time is non-negative and
///    bounded);
///  * makespan equals the latest finish time.
std::vector<Violation> validate_schedule(const dag::Dag& dag,
                                         const System& system,
                                         const CostModel& cost,
                                         const SimResult& result);

/// Lower bound on any schedule's makespan: length of the DAG's critical
/// path using each kernel's *best-case* execution time and zero transfer.
TimeMs critical_path_lower_bound_ms(const dag::Dag& dag, const System& system,
                                    const CostModel& cost);

/// Tighter makespan lower bound: the larger of the critical-path bound and
/// the area bound (total best-case work divided by the processor count — P
/// processors cannot retire work faster than P-way parallelism). The
/// denominator of the stream engine's per-application slowdown metric.
TimeMs makespan_lower_bound_ms(const dag::Dag& dag, const System& system,
                               const CostModel& cost);

/// Working memory of the longest-path walk behind the bounds. A caller that
/// bounds many graphs (an open stream run, once per admitted instance)
/// keeps one, so the walk allocates only when a graph outgrows it. What it
/// holds between calls is meaningless.
struct LowerBoundScratch {
  std::vector<TimeMs> longest;
  std::vector<std::size_t> preds_left;
  std::vector<dag::NodeId> queue;
};

/// The same bound from each node's best-case execution time already in
/// hand: `best_ms[n]` is node n's minimum over the system's processors.
/// The CostModel overload computes those minima and calls this one.
TimeMs makespan_lower_bound_ms(const dag::Dag& dag, const System& system,
                               const TimeMs* best_ms,
                               LowerBoundScratch& scratch);

/// One application of a stream run, as the stream engine records it with
/// StreamOptions::record_schedules: times absolute, nodes indexed locally
/// in `dag`. The referenced objects must outlive the validation call.
struct StreamAppView {
  const dag::Dag* dag = nullptr;
  TimeMs arrival_ms = 0.0;
  const SimResult* result = nullptr;
};

/// Checks a finished multi-instance (open-system) schedule:
///  * per application, the same per-kernel timeline, precedence, transfer,
///    and hedge invariants validate_schedule enforces, with readiness
///    gated on the application's arrival instant (ready >= arrival +
///    release offset);
///  * exclusivity ACROSS instances: the occupation intervals of kernels
///    sharing a processor never overlap, regardless of which application
///    they belong to — the invariant a single-DAG validation cannot see.
std::vector<Violation> validate_stream_schedule(
    const System& system, const std::vector<StreamAppView>& apps);

}  // namespace apt::sim
