// Alternative Processor within Threshold — the paper's contribution
// (thesis Chapter 3, Algorithm 1).
//
// APT is MET with tunable flexibility. Each ready kernel v_i (FIFO order):
//
//   1. Find p_min, the processor with the smallest execution time x for v_i
//      (a lookup-table query). If an optimal processor is idle, assign.
//   2. Otherwise compute threshold = α · x (α ≥ 1, Eq. 8) and look for an
//      *alternative* idle processor p_alt whose execution time plus
//      input-data transfer time is within the threshold; assign to the
//      cheapest such processor, or wait if none qualifies.
//
// α controls the flexibility/affinity trade-off: α → 1 degenerates to MET
// (always wait for the best processor); large α floods slow processors.
// The thesis finds a "valley" with the best makespan at threshold_brk ≈ 4
// for its CPU+GPU+FPGA system.
//
// Two comm-aware variants ride on the structured TransferEstimate contract:
//  * APT-C (comm_aware): the alternative-cost test prices transfers with
//    total_ms() — unloaded stall PLUS the predicted drain of the route
//    links' in-flight traffic — so a nominally-idle alternative behind a
//    congested link stops looking free. Identical to APT on an ideal
//    topology (the queueing term is always 0 there).
//  * APT-Q (rank_quantile = q): tail-aware ranking under service-time
//    noise. Costs become exec · m_q + stall_ms + link_queueing_ms · m_q
//    with m_q the q-quantile of the run's noise-multiplier mixture, and
//    the threshold scales by the same m_q: exec and queueing widen with
//    the tail, the deterministic unloaded stall does not. With noise off
//    m_q == 1, so APT-Q degenerates to APT-C bit-for-bit.
#pragma once

#include <optional>

#include "policies/ready_index.hpp"
#include "sim/policy.hpp"

namespace apt::core {

struct AptOptions {
  double alpha = 4.0;  ///< threshold multiplier (must be >= 1, Eq. 8)

  /// Include the input-data transfer time in the threshold comparison (the
  /// paper's definition). Disabled only by the ablation bench.
  bool transfer_aware = true;

  /// Also compare the alternative against waiting for p_min to drain
  /// (remaining busy time + x) — the thesis's announced future-work
  /// extension ("In the future, we will consider the remaining execution
  /// time in the optimal processor before deciding whether to assign to an
  /// alternative processor", Chapter 5). Names the policy "APT-R".
  bool consider_remaining_time = false;

  /// Price transfers with the backlog-aware reading (total_ms()) instead
  /// of the unloaded stall. Names the policy "APT-C".
  bool comm_aware = false;

  /// Rank by the q-quantile of cost under the run's noise spec (0 =
  /// disabled). Names the policy "APT-Q"; implies backlog-aware transfer
  /// pricing with the queueing term widened by m_q. Must be in [0, 1).
  double rank_quantile = 0.0;
};

class Apt : public sim::Policy {
 public:
  Apt() = default;
  explicit Apt(AptOptions options);
  explicit Apt(double alpha) : Apt(AptOptions{alpha, true, false}) {}

  std::string name() const override;
  bool is_dynamic() const override { return true; }
  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost_model) override;
  void on_event(sim::SchedulerContext& ctx) override;

  const AptOptions& options() const noexcept { return options_; }

 protected:
  /// Algorithm 1 for one ready kernel; true when it was assigned.
  bool decide(sim::SchedulerContext& ctx, dag::NodeId node);
  /// Whether decide() could ever pick `proc` for `node` (the index filter).
  bool admits(const sim::SchedulerContext& ctx, dag::NodeId node,
              sim::ProcId proc);

  /// Ready kernels filed under the processors admits() accepts.
  policies::ReadyIndex index_;

 private:
  /// m_q, computed on first use in a run.
  double quantile_mult(const sim::SchedulerContext& ctx);

  AptOptions options_;

  /// Cached m_q = noise_quantile_multiplier(run spec, rank_quantile);
  /// the spec is fixed per run, so the bisection runs once. Reset by
  /// prepare(), filled lazily from the first on_event's context.
  std::optional<double> quantile_mult_;
};

}  // namespace apt::core
