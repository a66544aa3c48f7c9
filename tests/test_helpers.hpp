// Shared fixtures and builders for the test suite.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "lut/paper_data.hpp"
#include "sim/cost_model.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/system.hpp"
#include "sim/validate.hpp"

#include <gtest/gtest.h>

namespace apt::test {

/// Homogeneous-typed system with `n` processors — cost comes from a
/// MatrixCostModel so the types are irrelevant.
inline sim::System generic_system(std::size_t n) {
  sim::SystemConfig cfg;
  cfg.processors.assign(n, lut::ProcType::CPU);
  return sim::System(cfg);
}

/// The paper's 1×CPU + 1×GPU + 1×FPGA platform.
inline sim::System paper_system(double rate_gbps = 4.0) {
  return sim::System(sim::SystemConfig::paper_default(rate_gbps));
}

/// Runs a policy and asserts the schedule satisfies every invariant.
inline sim::SimResult run_and_validate(sim::Policy& policy,
                                       const dag::Dag& dag,
                                       const sim::System& system,
                                       const sim::CostModel& cost) {
  sim::Engine engine(dag, system, cost);
  const sim::SimResult result = engine.run(policy);
  const auto violations = sim::validate_schedule(dag, system, cost, result);
  for (const auto& v : violations) ADD_FAILURE() << v.message;
  EXPECT_GE(result.makespan + 1e-9,
            sim::critical_path_lower_bound_ms(dag, system, cost));
  return result;
}

/// AG-style policy that enqueues the whole ready set on every pass, taking
/// kernels from the back, the front, and the middle in turn, and audits
/// SchedulerContext::ready() after every commit: it must hold exactly the
/// survivors, in their FIFO order, never a committed kernel.
class DrainingReadyAuditor final : public sim::Policy {
 public:
  std::string name() const override { return "draining-ready-auditor"; }
  bool is_dynamic() const override { return true; }

  void on_event(sim::SchedulerContext& ctx) override {
    std::vector<dag::NodeId> expected = ctx.ready();
    while (!expected.empty()) {
      const std::size_t n = expected.size();
      const std::size_t turn = commits % 3;
      const std::size_t at = turn == 0 ? n - 1 : turn == 1 ? 0 : n / 2;
      const dag::NodeId node = expected[at];
      expected.erase(expected.begin() + static_cast<std::ptrdiff_t>(at));
      ctx.enqueue(node, node % ctx.system().proc_count());
      ++commits;
      if (ctx.ready() != expected) ++violations;
    }
  }

  std::size_t commits = 0;
  std::size_t violations = 0;  ///< commits after which ready() was wrong
};

/// The classic HEFT example (Topcuoglu et al. 2002, Figure 2): 10 tasks on
/// 3 processors, published makespan 80. Node ids here are 0-based (paper's
/// task k is node k-1).
struct TopcuogluExample {
  dag::Dag dag;
  std::unique_ptr<sim::MatrixCostModel> cost;
};

inline TopcuogluExample topcuoglu_example() {
  TopcuogluExample ex;
  for (int i = 0; i < 10; ++i) ex.dag.add_node("t" + std::to_string(i + 1), 1);
  const std::vector<std::vector<sim::TimeMs>> w = {
      {14, 16, 9},  {13, 19, 18}, {11, 13, 19}, {13, 8, 17},  {12, 13, 10},
      {13, 16, 9},  {7, 15, 11},  {5, 11, 14},  {18, 12, 20}, {21, 7, 16}};
  ex.cost = std::make_unique<sim::MatrixCostModel>(w);
  const std::vector<std::tuple<int, int, double>> edges = {
      {1, 2, 18}, {1, 3, 12}, {1, 4, 9},  {1, 5, 11}, {1, 6, 14},
      {2, 8, 19}, {2, 9, 16}, {3, 7, 23}, {4, 8, 27}, {4, 9, 23},
      {5, 9, 13}, {6, 8, 15}, {7, 10, 17}, {8, 10, 11}, {9, 10, 13}};
  for (const auto& [src, dst, comm] : edges) {
    ex.dag.add_edge(static_cast<dag::NodeId>(src - 1),
                    static_cast<dag::NodeId>(dst - 1));
    ex.cost->set_comm_cost(static_cast<dag::NodeId>(src - 1),
                           static_cast<dag::NodeId>(dst - 1), comm);
  }
  return ex;
}

/// A diamond DAG a->b, a->c, b->d, c->d with the given kernel names/sizes.
inline dag::Dag diamond(const std::vector<dag::Node>& nodes4) {
  dag::Dag d;
  for (const auto& n : nodes4) d.add_node(n);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

/// A chain n0 -> n1 -> ... of the given nodes.
inline dag::Dag chain(const std::vector<dag::Node>& nodes) {
  dag::Dag d;
  for (const auto& n : nodes) d.add_node(n);
  for (dag::NodeId i = 1; i < nodes.size(); ++i) d.add_edge(i - 1, i);
  return d;
}

}  // namespace apt::test
