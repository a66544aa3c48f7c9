#include "policies/ag.hpp"

#include <stdexcept>

namespace apt::policies {

AdaptiveGreedy::AdaptiveGreedy(AgOptions options) : options_(options) {
  if (options_.history_window == 0)
    throw std::invalid_argument("AdaptiveGreedy: history_window must be >= 1");
}

sim::TimeMs AdaptiveGreedy::queue_delay_ms(const sim::SchedulerContext& ctx,
                                           sim::ProcId proc) const {
  switch (options_.estimate) {
    case AgQueueEstimate::SumOfQueued:
      return ctx.queued_work_ms(proc);
    case AgQueueEstimate::RecentAverage: {
      const std::size_t in_flight =
          ctx.queue_length(proc) + (ctx.is_idle(proc) ? 0 : 1);
      return static_cast<double>(in_flight) *
             ctx.recent_avg_exec_ms(proc, options_.history_window);
    }
  }
  return 0.0;
}

void AdaptiveGreedy::on_event(sim::SchedulerContext& ctx) {
  // AG commits every ready kernel to some processor queue immediately —
  // it never leaves work unqueued (thesis Table 2: "never waits" = No, but
  // the *scheduler* always acts; waiting happens inside the queues).
  // Snapshot: enqueue() mutates the ready list.
  const std::vector<dag::NodeId>& all = ctx.ready();
  ready_.assign(all.begin(), all.end());
  const std::size_t procs = ctx.system().proc_count();
  stalls_.resize(procs);
  estimates_.resize(procs);
  for (const dag::NodeId node : ready_) {
    // τ_g^d for every processor in one row query: comm-blind AG plans
    // against the unloaded route (stall_ms, the legacy scalar) and never
    // reads the fabric; AG-net adds the predicted link backlog — the
    // fabric analogue of τ_g^q.
    if (options_.comm_aware) {
      ctx.transfer_estimates(node, estimates_.data());
    } else {
      ctx.transfer_stalls(node, stalls_.data());
    }
    sim::ProcId best = 0;
    sim::TimeMs best_tau = 0.0;
    for (sim::ProcId proc = 0; proc < procs; ++proc) {
      const sim::TimeMs tau =
          queue_delay_ms(ctx, proc) + (options_.comm_aware
                                           ? estimates_[proc].total_ms()
                                           : stalls_[proc]);
      if (proc == 0 || tau < best_tau) {
        best = proc;
        best_tau = tau;
      }
    }
    ctx.enqueue(node, best);
  }
}

}  // namespace apt::policies
