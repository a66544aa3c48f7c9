// Static (plan-ahead) scheduling infrastructure shared by HEFT and PEFT.
//
// A static policy sees the whole DAG up front (thesis §2.5.2), computes a
// complete kernel→processor plan with predicted start/finish times, and the
// engine then *executes* that plan: each processor runs its planned kernels
// in planned-start order, starting each as soon as the processor is free and
// the kernel's dependencies (plus prefetched transfers) allow. Because the
// planner and the engine share the cost model and transfer semantics, the
// simulated schedule reproduces the planned one exactly — an invariant the
// test suite checks.
#pragma once

#include <functional>
#include <vector>

#include "sim/policy.hpp"
#include "sim/precomputed_cost_model.hpp"

namespace apt::policies {

/// One planned task placement.
struct PlannedTask {
  dag::NodeId node = dag::kInvalidNode;
  sim::ProcId proc = sim::kInvalidProc;
  sim::TimeMs start = 0.0;   ///< predicted execution start (EST)
  sim::TimeMs finish = 0.0;  ///< predicted finish (EFT)
};

/// A full static schedule.
struct StaticPlan {
  std::vector<PlannedTask> tasks;  ///< indexed by node id

  sim::TimeMs planned_makespan() const;

  /// Per-processor node sequences sorted by planned start — the execution
  /// order the engine-side executor follows.
  std::vector<std::vector<dag::NodeId>> per_proc_order(
      std::size_t proc_count) const;
};

/// Base class: subclasses implement compute_plan(); execution is shared.
class StaticPolicyBase : public sim::Policy {
 public:
  bool is_dynamic() const final { return false; }

  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost) final;

  void on_event(sim::SchedulerContext& ctx) final;

  /// The plan computed by the last prepare() (empty before any run).
  const StaticPlan& plan() const noexcept { return plan_; }

 protected:
  virtual StaticPlan compute_plan(const dag::Dag& dag,
                                  const sim::System& system,
                                  const sim::CostModel& cost) = 0;

 private:
  StaticPlan plan_;
  std::vector<std::vector<dag::NodeId>> order_;  // per proc, planned order
  std::vector<std::size_t> next_;                // cursor per proc
  /// [node] ready and not yet released. Filled from ready_from(), the way
  /// ReadyIndex files kernels, so a pass never reads the whole ready set.
  std::vector<char> ready_;
  std::size_t seen_ = 0;  ///< flagged kernels: the ready set's first seen_
};

// --- List-scheduling machinery ------------------------------------------------

/// Insertion-based earliest-start search: the earliest t >= ready_time at
/// which a task of length `duration` fits on a processor whose occupied
/// intervals are `busy` (sorted by start, non-overlapping) — HEFT's
/// insertion policy.
sim::TimeMs earliest_insertion_start(
    const std::vector<std::pair<sim::TimeMs, sim::TimeMs>>& busy,
    sim::TimeMs ready_time, sim::TimeMs duration);

/// Scoring hook for processor selection: given the candidate processor and
/// its insertion-based EST/EFT for the task, return the value to minimise
/// (HEFT: EFT itself; PEFT: EFT + OCT). Ties resolve to the lower proc id.
using ProcScore = std::function<double(dag::NodeId node, sim::ProcId proc,
                                       sim::TimeMs est, sim::TimeMs eft)>;

/// Generic priority-list scheduler: repeatedly takes the unscheduled task
/// with the highest priority among those whose predecessors are all
/// scheduled (ties -> the task that became schedulable first, entry tasks
/// in id order), and places it on the processor minimising `score` using
/// insertion-based ESTs with prefetched transfers.
StaticPlan list_schedule(const dag::Dag& dag, const sim::System& system,
                         const sim::CostModel& cost,
                         const std::vector<double>& priority,
                         const ProcScore& score);

/// The same scheduler reading a dense table that covers `dag`.
StaticPlan list_schedule(const dag::Dag& dag,
                         const sim::PrecomputedCostModel& dense,
                         const std::vector<double>& priority,
                         const ProcScore& score);

}  // namespace apt::policies
