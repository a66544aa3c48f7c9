#include "core/apt.hpp"

#include <limits>
#include <optional>
#include <stdexcept>

#include "policies/selection.hpp"
#include "util/string_utils.hpp"

namespace apt::core {

Apt::Apt(AptOptions options) : options_(options) {
  if (!(options_.alpha >= 1.0))
    throw std::invalid_argument("Apt: alpha must be >= 1 (Eq. 8)");
  if (options_.rank_quantile < 0.0 || options_.rank_quantile >= 1.0)
    throw std::invalid_argument("Apt: rank_quantile must be in [0, 1)");
}

std::string Apt::name() const {
  const char* head = options_.rank_quantile > 0.0 ? "APT-Q"
                     : options_.comm_aware        ? "APT-C"
                                                  : "APT";
  std::string n = std::string(head) + "(alpha=" +
                  util::format_double(options_.alpha, 2) + ")";
  if (!options_.transfer_aware) n += "[no-transfer]";
  if (options_.consider_remaining_time) n += "[remaining]";
  return n;
}

void Apt::prepare(const dag::Dag&, const sim::System& system,
                  const sim::CostModel&) {
  quantile_mult_.reset();
  index_.reset(system.proc_count());
}

void Apt::on_event(sim::SchedulerContext& ctx) {
  index_.pass(
      ctx,
      [this, &ctx](dag::NodeId node, sim::ProcId proc) {
        return admits(ctx, node, proc);
      },
      [this, &ctx](dag::NodeId node) { return decide(ctx, node); });
}

double Apt::quantile_mult(const sim::SchedulerContext& ctx) {
  if (!quantile_mult_) {
    quantile_mult_ = options_.rank_quantile > 0.0
                         ? sim::noise_quantile_multiplier(
                               ctx.noise(), options_.rank_quantile)
                         : 1.0;
  }
  return *quantile_mult_;
}

bool Apt::admits(const sim::SchedulerContext& ctx, dag::NodeId node,
                 sim::ProcId proc) {
  // decide() picks an optimal processor or an alternative whose priced
  // cost is within the threshold. Every transfer reading it prices with is
  // at least stall_ms (total_ms adds queueing, quantile_ms a non-negative
  // tail), and exec, x and stall_ms are fixed once the kernel is ready. So
  // this stall-priced test, in decide()'s expression order, admits every
  // processor decide() could pick: exactly those for APT, a superset for
  // APT-C/Q and for the remaining-time check.
  const sim::TimeMs x = policies::min_exec_time_ms(ctx, node);
  const sim::TimeMs exec = ctx.exec_time_ms(node, proc);
  if (exec == x) return true;
  const double mq = quantile_mult(ctx);
  const sim::TimeMs threshold = options_.alpha * x * mq;
  sim::TimeMs cost = exec * mq;
  if (options_.rank_quantile > 0.0 || options_.comm_aware ||
      options_.transfer_aware)
    cost += ctx.transfer_estimate(node, proc).stall_ms;
  return cost <= threshold;
}

bool Apt::decide(sim::SchedulerContext& ctx, dag::NodeId node) {
  // Line 5-8 of Algorithm 1: the best processor, taken when available.
  if (const auto pmin = policies::idle_optimal_proc(ctx, node)) {
    ctx.assign(node, *pmin);
    return true;
  }

  // Line 10-14: the alternative processor within the threshold. APT-Q
  // scales BOTH sides by m_q: a uniform multiplier cancels in a pure
  // argmin, so the quantile only bites through the mixed deterministic /
  // noisy sum — exec and queueing widen with the tail, the unloaded
  // stall does not.
  const double mq = quantile_mult(ctx);
  const sim::TimeMs x = policies::min_exec_time_ms(ctx, node);
  const sim::TimeMs threshold = options_.alpha * x * mq;

  std::optional<sim::ProcId> alt;
  sim::TimeMs alt_cost = std::numeric_limits<sim::TimeMs>::infinity();
  for (const sim::ProcId proc : ctx.idle_processors()) {
    sim::TimeMs cost = ctx.exec_time_ms(node, proc) * mq;
    if (options_.rank_quantile > 0.0) {
      cost += ctx.transfer_estimate(node, proc)
                  .quantile_ms(options_.rank_quantile);
    } else if (options_.comm_aware) {
      cost += ctx.transfer_estimate(node, proc).total_ms();
    } else if (options_.transfer_aware) {
      // The comm-blind reading: bit-identical to the legacy scalar.
      cost += ctx.transfer_estimate(node, proc).stall_ms;
    }
    if (cost <= threshold && cost < alt_cost) {
      alt = proc;
      alt_cost = cost;
    }
  }
  if (!alt) return false;  // within-threshold alternative absent: wait

  if (options_.consider_remaining_time) {
    // Future-work refinement: waiting costs (remaining time on p_min) + x;
    // prefer waiting when it beats the alternative.
    const sim::ProcId pmin = policies::min_exec_proc(ctx, node);
    const sim::TimeMs wait_cost = (ctx.busy_until(pmin) - ctx.now()) + x;
    if (wait_cost <= alt_cost) return false;
  }
  ctx.assign(node, *alt, /*alternative=*/true);
  return true;
}

}  // namespace apt::core
