// APT-Ranked: our hybrid extension combining HEFT's task prioritisation
// with APT's dynamic processor selection (not in the thesis; evaluated in
// bench_ablation_apt).
//
// Plain APT serves the ready set in FIFO (arrival) order, so a kernel with
// a long dependent chain can sit behind trivial kernels when processors
// are contested. APT-Ranked computes HEFT upward ranks once up front
// (making it semi-static: it needs the whole DAG, but keeps APT's cheap
// per-event decisions) and offers contested processors to the
// highest-rank ready kernel first, ready order among equal ranks.
//
// The per-kernel decision is Apt's with default options (m_q = 1,
// stall-priced transfers), so threshold semantics are unchanged. The pass
// runs on Apt's ready index keyed by rank: a kernel's rank is fixed when it
// becomes ready, so a pass files only the new kernels and visits only those
// an idle processor could take, instead of sorting the whole ready set.
#pragma once

#include <vector>

#include "core/apt.hpp"

namespace apt::core {

class AptRanked final : public Apt {
 public:
  explicit AptRanked(double alpha = 4.0) : Apt(alpha) {}

  std::string name() const override;

  /// Dynamic per-event decisions, but prepare() consumes the full DAG —
  /// report as non-dynamic for the Eq. 13/14 comparisons (it enjoys the
  /// same whole-graph knowledge the statics do), while still paying
  /// transfers at assignment like every other on-line policy.
  bool is_dynamic() const override { return false; }
  sim::TransferSemantics transfer_semantics() const override {
    return sim::TransferSemantics::AtAssignment;
  }

  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost) override;
  void on_event(sim::SchedulerContext& ctx) override;

  double alpha() const noexcept { return options().alpha; }
  const std::vector<double>& ranks() const noexcept { return rank_; }

 private:
  std::vector<double> rank_;  ///< HEFT upward rank per node
};

}  // namespace apt::core
