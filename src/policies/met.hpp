// Minimum Execution Time / "best only" (Braun et al. [19]; thesis §2.5.3).
//
// Each ready kernel is bound to the processor with the smallest execution
// time for it. If every such processor is busy, the kernel *waits* — MET
// never settles for second best, maximising per-kernel affinity at the cost
// of idle alternative processors. The thesis uses deterministic FIFO
// (arrival) order instead of Braun's random order; APT uses the same order,
// which makes the APT-vs-MET comparison exact.
#pragma once

#include "policies/ready_index.hpp"
#include "sim/policy.hpp"

namespace apt::policies {

class Met final : public sim::Policy {
 public:
  std::string name() const override { return "MET"; }
  bool is_dynamic() const override { return true; }
  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost_model) override;
  void on_event(sim::SchedulerContext& ctx) override;

 private:
  /// Ready kernels filed under their optimal processors.
  ReadyIndex index_;
};

}  // namespace apt::policies
