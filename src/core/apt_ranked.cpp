#include "core/apt_ranked.hpp"

#include "policies/heft.hpp"
#include "util/string_utils.hpp"

namespace apt::core {

std::string AptRanked::name() const {
  return "APT-Ranked(alpha=" + util::format_double(alpha(), 2) + ")";
}

void AptRanked::prepare(const dag::Dag& dag, const sim::System& system,
                        const sim::CostModel& cost) {
  Apt::prepare(dag, system, cost);
  rank_ = policies::heft_upward_ranks(dag, system, cost);
}

void AptRanked::on_event(sim::SchedulerContext& ctx) {
  index_.pass(
      ctx,
      [this, &ctx](dag::NodeId node, sim::ProcId proc) {
        return admits(ctx, node, proc);
      },
      [this, &ctx](dag::NodeId node) { return decide(ctx, node); },
      [this](dag::NodeId node) { return rank_.at(node); });
}

}  // namespace apt::core
