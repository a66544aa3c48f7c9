// Test-only reference policies: MET and APT as full FIFO scans over the
// ready set, the way both policies ran before policies::ReadyIndex. The
// scans below are the old on_event bodies word for word; the equivalence
// suite asserts the indexed policies reproduce them bit for bit.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "core/apt.hpp"
#include "policies/selection.hpp"
#include "sim/policy.hpp"

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

}  // namespace apt::test
