// Test-only reference policies: MET and APT as full FIFO scans over the
// ready set, the way both policies ran before policies::ReadyIndex,
// APT-Ranked as the sorted scan it ran before it moved onto the index, and
// AG / AG-net pricing each (kernel, processor) pair with its own scalar
// transfer_estimate query, the way AG ran before the row queries. The
// scans below are the old on_event bodies word for word; the equivalence
// suite asserts the shipped policies reproduce them bit for bit. Ranks come
// from the frozen planners (reference_static_planners.hpp), so the
// references stay frozen while the shipped planners change.
#pragma once

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/apt.hpp"
#include "policies/ag.hpp"
#include "policies/selection.hpp"
#include "sim/policy.hpp"

#include "reference_static_planners.hpp"

namespace apt::test {

/// policies::Met as a FIFO scan.
class ReferenceMet final : public sim::Policy {
 public:
  std::string name() const override { return "MET"; }
  bool is_dynamic() const override { return true; }

  void on_event(sim::SchedulerContext& ctx) override {
    // Saturation fast path: idle_optimal_proc can only answer from the idle
    // set, and assignments only consume idle processors — an empty idle set
    // makes the rest of the pass a provable no-op, so skip it.
    if (ctx.idle_processors().empty()) return;
    // Snapshot: assign() mutates the ready list. A single pass suffices —
    // assignments only consume idle processors, never create them.
    const std::vector<dag::NodeId> ready = ctx.ready();
    for (const dag::NodeId node : ready) {
      if (ctx.idle_processors().empty()) break;
      if (const auto proc = policies::idle_optimal_proc(ctx, node)) {
        ctx.assign(node, *proc);
      }
      // Otherwise: wait for the optimal processor to free up.
    }
  }
};

/// core::Apt (every AptOptions variant) as a FIFO scan.
class ReferenceApt final : public sim::Policy {
 public:
  explicit ReferenceApt(core::AptOptions options) : options_(options) {}

  std::string name() const override { return "reference-APT"; }
  bool is_dynamic() const override { return true; }

  void prepare(const dag::Dag&, const sim::System&,
               const sim::CostModel&) override {
    quantile_mult_.reset();
  }

  void on_event(sim::SchedulerContext& ctx) override {
    // Saturation fast path: both branches below act only through an idle
    // processor, and assignments only ever consume idle processors — so
    // with the idle set empty the whole pass is a no-op, and once it
    // empties mid-pass the remaining iterations are too.
    if (ctx.idle_processors().empty()) return;
    // Snapshot: assign() mutates the ready list; one pass suffices because
    // assignments never free a processor.
    const std::vector<dag::NodeId> ready = ctx.ready();
    for (const dag::NodeId node : ready) {
      if (ctx.idle_processors().empty()) break;
      // Line 5-8 of Algorithm 1: the best processor, taken when available.
      if (const auto pmin = policies::idle_optimal_proc(ctx, node)) {
        ctx.assign(node, *pmin);
        continue;
      }

      // Line 10-14: the alternative processor within the threshold. APT-Q
      // scales BOTH sides by m_q: a uniform multiplier cancels in a pure
      // argmin, so the quantile only bites through the mixed deterministic
      // / noisy sum — exec and queueing widen with the tail, the unloaded
      // stall does not.
      if (!quantile_mult_) {
        quantile_mult_ = options_.rank_quantile > 0.0
                             ? sim::noise_quantile_multiplier(
                                   ctx.noise(), options_.rank_quantile)
                             : 1.0;
      }
      const double mq = *quantile_mult_;
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
      if (!alt) continue;  // within-threshold alternative absent: wait

      if (options_.consider_remaining_time) {
        // Future-work refinement: waiting costs (remaining time on p_min) +
        // x; prefer waiting when it beats the alternative.
        const sim::ProcId pmin = policies::min_exec_proc(ctx, node);
        const sim::TimeMs wait_cost = (ctx.busy_until(pmin) - ctx.now()) + x;
        if (wait_cost <= alt_cost) continue;
      }
      ctx.assign(node, *alt, /*alternative=*/true);
    }
  }

 private:
  core::AptOptions options_;
  std::optional<double> quantile_mult_;
};

/// core::AptRanked as a full scan of the ready set sorted by upward rank.
class ReferenceAptRanked final : public sim::Policy {
 public:
  explicit ReferenceAptRanked(double alpha) : alpha_(alpha) {
    if (!(alpha_ >= 1.0))
      throw std::invalid_argument("AptRanked: alpha must be >= 1");
  }

  std::string name() const override { return "reference-APT-Ranked"; }
  bool is_dynamic() const override { return false; }
  sim::TransferSemantics transfer_semantics() const override {
    return sim::TransferSemantics::AtAssignment;
  }

  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost) override {
    rank_ = policies::reference::heft_upward_ranks(dag, system, cost);
  }

  void on_event(sim::SchedulerContext& ctx) override {
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

 private:
  double alpha_;
  std::vector<double> rank_;  ///< HEFT upward rank per node
};

/// policies::AdaptiveGreedy (every AgOptions variant) with one scalar
/// transfer_estimate per (ready kernel, processor).
class ReferenceAg final : public sim::Policy {
 public:
  explicit ReferenceAg(policies::AgOptions options) : options_(options) {}

  std::string name() const override { return "reference-AG"; }
  bool is_dynamic() const override { return true; }

  void on_event(sim::SchedulerContext& ctx) override {
    // AG commits every ready kernel to some processor queue immediately —
    // it never leaves work unqueued (thesis Table 2: "never waits" = No, but
    // the *scheduler* always acts; waiting happens inside the queues).
    const std::vector<dag::NodeId> ready = ctx.ready();
    for (const dag::NodeId node : ready) {
      sim::ProcId best = 0;
      sim::TimeMs best_tau = 0.0;
      for (sim::ProcId proc = 0; proc < ctx.system().proc_count(); ++proc) {
        // τ_g^d: comm-blind AG plans against the unloaded route (stall_ms,
        // the legacy scalar); AG-net adds the predicted link backlog — the
        // fabric analogue of τ_g^q.
        const sim::TransferEstimate est = ctx.transfer_estimate(node, proc);
        const sim::TimeMs tau =
            queue_delay_ms(ctx, proc) +
            (options_.comm_aware ? est.total_ms() : est.stall_ms);
        if (proc == 0 || tau < best_tau) {
          best = proc;
          best_tau = tau;
        }
      }
      ctx.enqueue(node, best);
    }
  }

 private:
  sim::TimeMs queue_delay_ms(const sim::SchedulerContext& ctx,
                             sim::ProcId proc) const {
    switch (options_.estimate) {
      case policies::AgQueueEstimate::SumOfQueued:
        return ctx.queued_work_ms(proc);
      case policies::AgQueueEstimate::RecentAverage: {
        const std::size_t in_flight =
            ctx.queue_length(proc) + (ctx.is_idle(proc) ? 0 : 1);
        return static_cast<double>(in_flight) *
               ctx.recent_avg_exec_ms(proc, options_.history_window);
      }
    }
    return 0.0;
  }

  policies::AgOptions options_;
};

}  // namespace apt::test
