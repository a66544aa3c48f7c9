// Adaptive Greedy (Wu, Shi & Hong [18]; thesis §2.5.3, Eq. 1–2).
//
// AG maintains a FIFO queue per processor and greedily enqueues each
// arriving kernel where its estimated total waiting time
//     τ_g = τ_g^q (queueing delay) + τ_g^d (input-data transfer delay)
// is smallest. Two queueing-delay estimators are provided:
//  * SumOfQueued (default): remaining time of the running kernel plus the
//    lookup-table times of everything already queued — the deterministic
//    reading of "the sum of the compute times for all kernels already in
//    the queue".
//  * RecentAverage: N_g · τ_g^k, the paper's Eq. (2) with τ_g^k the mean
//    execution time of the last k completions on that processor.
//
// The comm_aware variant ("AG-net") extends τ_g^d from the unloaded route
// estimate to TransferEstimate::total_ms(): the processor backlog PLUS the
// predicted drain of the route links' in-flight traffic at current max-min
// rates — AG's queue-length idea applied to the fabric as well as the
// processors. On an ideal topology the queueing term is always 0, so
// AG-net degenerates to AG bit-for-bit.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/policy.hpp"

namespace apt::policies {

enum class AgQueueEstimate { SumOfQueued, RecentAverage };

struct AgOptions {
  AgQueueEstimate estimate = AgQueueEstimate::SumOfQueued;
  std::size_t history_window = 5;  ///< the k of Eq. (2)

  /// Rank with the backlog-aware transfer reading (total_ms()) instead of
  /// the unloaded stall. Names the policy "AG-net".
  bool comm_aware = false;
};

class AdaptiveGreedy final : public sim::Policy {
 public:
  AdaptiveGreedy() = default;
  explicit AdaptiveGreedy(AgOptions options);

  std::string name() const override {
    return options_.comm_aware ? "AG-net" : "AG";
  }
  bool is_dynamic() const override { return true; }
  void on_event(sim::SchedulerContext& ctx) override;

  const AgOptions& options() const noexcept { return options_; }

 private:
  sim::TimeMs queue_delay_ms(const sim::SchedulerContext& ctx,
                             sim::ProcId proc) const;

  AgOptions options_;
  // Reused per-pass buffers: the ready snapshot, and one kernel's transfer
  // row (stalls for AG, full estimates for AG-net).
  std::vector<dag::NodeId> ready_;
  std::vector<sim::TimeMs> stalls_;
  std::vector<sim::TransferEstimate> estimates_;
};

}  // namespace apt::policies
