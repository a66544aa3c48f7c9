#include "policies/met.hpp"

#include "policies/selection.hpp"

namespace apt::policies {

void Met::prepare(const dag::Dag&, const sim::System& system,
                  const sim::CostModel&) {
  index_.reset(system.proc_count());
}

void Met::on_event(sim::SchedulerContext& ctx) {
  // A kernel can only go to an optimal processor, so it is filed under
  // those alone and visited only while one of them is idle, when the
  // decision below always assigns it.
  index_.pass(
      ctx,
      [&ctx](dag::NodeId node, sim::ProcId proc) {
        return ctx.exec_time_ms(node, proc) == ctx.min_exec_time_ms(node);
      },
      [&ctx](dag::NodeId node) {
        const auto proc = idle_optimal_proc(ctx, node);
        if (proc) ctx.assign(node, *proc);
        // Otherwise: wait for the optimal processor to free up.
        return proc.has_value();
      });
}

}  // namespace apt::policies
