#include "core/apt_ranked.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

#include "policies/heft.hpp"
#include "policies/selection.hpp"
#include "util/string_utils.hpp"

namespace apt::core {

AptRanked::AptRanked(double alpha) : alpha_(alpha) {
  if (!(alpha_ >= 1.0))
    throw std::invalid_argument("AptRanked: alpha must be >= 1");
}

std::string AptRanked::name() const {
  return "APT-Ranked(alpha=" + util::format_double(alpha_, 2) + ")";
}

void AptRanked::prepare(const dag::Dag& dag, const sim::System& system,
                        const sim::CostModel& cost) {
  rank_ = policies::heft_upward_ranks(dag, system, cost);
}

void AptRanked::on_event(sim::SchedulerContext& ctx) {
  // Every commit takes an idle processor, so a pass without one cannot
  // commit, and the walk ends once the last one is taken.
  if (ctx.idle_processors().empty()) return;
  // Serve the ready set highest-upward-rank first (ties: lower id, which
  // std::stable_sort preserves from the FIFO order).
  std::vector<dag::NodeId> ready = ctx.ready();
  std::stable_sort(ready.begin(), ready.end(),
                   [this](dag::NodeId a, dag::NodeId b) {
                     return rank_.at(a) > rank_.at(b);
                   });
  for (const dag::NodeId node : ready) {
    if (ctx.idle_processors().empty()) return;
    if (const auto pmin = policies::idle_optimal_proc(ctx, node)) {
      ctx.assign(node, *pmin);
      continue;
    }
    const sim::TimeMs x = policies::min_exec_time_ms(ctx, node);
    const sim::TimeMs threshold = alpha_ * x;
    std::optional<sim::ProcId> alt;
    sim::TimeMs alt_cost = std::numeric_limits<sim::TimeMs>::infinity();
    for (const sim::ProcId proc : ctx.idle_processors()) {
      const sim::TimeMs cost = ctx.exec_time_ms(node, proc) +
                               ctx.transfer_estimate(node, proc).stall_ms;
      if (cost <= threshold && cost < alt_cost) {
        alt = proc;
        alt_cost = cost;
      }
    }
    if (alt) ctx.assign(node, *alt, /*alternative=*/true);
  }
}

}  // namespace apt::core
