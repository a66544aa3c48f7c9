// Heterogeneous Earliest Finish Time (Topcuoglu, Hariri & Wu [16]).
//
// Static list scheduler: tasks are prioritised by *upward rank*
//
//   rank_u(n_i) = w̄_i + max_{n_j ∈ succ(n_i)} ( c̄_ij + rank_u(n_j) )     (Eq. 3)
//
// (w̄ = mean execution time over processors, c̄ = mean communication cost
// over distinct processor pairs), then each task is placed on the processor
// minimising its earliest finish time using insertion-based slot search.
//
// Ranks and placement read one dense cost table (sim::dense_cost_model):
// the closed run's own, or one built from the cost model handed in.
#pragma once

#include <vector>

#include "policies/static_plan.hpp"

namespace apt::policies {

class Heft final : public StaticPolicyBase {
 public:
  std::string name() const override { return "HEFT"; }

 protected:
  StaticPlan compute_plan(const dag::Dag& dag, const sim::System& system,
                          const sim::CostModel& cost) override;
};

/// Upward ranks (Eq. 3/4), exposed for tests against the literature example.
std::vector<double> heft_upward_ranks(const dag::Dag& dag,
                                      const sim::System& system,
                                      const sim::CostModel& cost);

/// Downward ranks (Eq. 5): longest distance from an entry task to n_i,
/// excluding n_i's own cost.
std::vector<double> heft_downward_ranks(const dag::Dag& dag,
                                        const sim::System& system,
                                        const sim::CostModel& cost);

}  // namespace apt::policies
