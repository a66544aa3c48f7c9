// Test-only reference: the static planners as they ran before they read
// the closed run's dense cost table. The two cost-model means, the HEFT
// ranks, the PEFT optimistic cost table, the list scheduler, and the
// executor that scans the whole ready set are the old code word for word,
// except that the means are free functions instead of CostModel methods.
// The equivalence suite (test_static_planner_equivalence) asserts the
// shipped planners and policies reproduce them bit for bit.
#pragma once

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dag/graph.hpp"
#include "policies/static_plan.hpp"
#include "sim/cost_model.hpp"
#include "sim/policy.hpp"
#include "sim/system.hpp"

#include "reference_pricing.hpp"

namespace apt::policies::reference {

/// Mean of transfer_time_ms over all ordered pairs of *distinct*
/// processors — the average communication cost c̄(i,j) used by the HEFT
/// and PEFT rank computations. Returns 0 on single-processor systems.
inline sim::TimeMs average_transfer_time_ms(const sim::CostModel& cost,
                                            const dag::Dag& dag,
                                            dag::NodeId src, dag::NodeId dst,
                                            const sim::System& system) {
  const auto& procs = system.processors();
  if (procs.size() < 2) return 0.0;
  double sum = 0.0;
  std::size_t pairs = 0;
  for (const sim::Processor& from : procs) {
    for (const sim::Processor& to : procs) {
      if (from.id == to.id) continue;
      sum += test::reference_transfer_ms(cost, system, dag, src, dst, from, to);
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

/// Mean of exec_time_ms over all processors — w̄(i) in HEFT's rank_u.
inline sim::TimeMs average_exec_time_ms(const sim::CostModel& cost,
                                        const dag::Dag& dag, dag::NodeId node,
                                        const sim::System& system) {
  const auto& procs = system.processors();
  double sum = 0.0;
  for (const sim::Processor& p : procs) sum += cost.exec_time_ms(dag, node, p);
  return sum / static_cast<double>(procs.size());
}

inline std::vector<double> heft_upward_ranks(const dag::Dag& dag,
                                             const sim::System& system,
                                             const sim::CostModel& cost) {
  const auto topo = dag.topological_order();
  std::vector<double> rank(dag.node_count(), 0.0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::NodeId n = *it;
    double tail = 0.0;
    for (const dag::NodeId s : dag.successors(n)) {
      tail = std::max(tail, average_transfer_time_ms(cost, dag, n, s, system) +
                                rank[s]);
    }
    rank[n] = average_exec_time_ms(cost, dag, n, system) + tail;
  }
  return rank;
}

inline std::vector<double> heft_downward_ranks(const dag::Dag& dag,
                                               const sim::System& system,
                                               const sim::CostModel& cost) {
  std::vector<double> rank(dag.node_count(), 0.0);
  for (const dag::NodeId n : dag.topological_order()) {
    for (const dag::NodeId p : dag.predecessors(n)) {
      rank[n] = std::max(
          rank[n], rank[p] + average_exec_time_ms(cost, dag, p, system) +
                       average_transfer_time_ms(cost, dag, p, n, system));
    }
  }
  return rank;
}

inline std::vector<std::vector<double>> peft_oct(const dag::Dag& dag,
                                                 const sim::System& system,
                                                 const sim::CostModel& cost) {
  const std::size_t procs = system.proc_count();
  std::vector<std::vector<double>> oct(dag.node_count(),
                                       std::vector<double>(procs, 0.0));
  const auto topo = dag.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const dag::NodeId t = *it;
    for (sim::ProcId pk = 0; pk < procs; ++pk) {
      double worst_child = 0.0;
      for (const dag::NodeId tj : dag.successors(t)) {
        double best_pw = std::numeric_limits<double>::infinity();
        const double avg_comm =
            average_transfer_time_ms(cost, dag, t, tj, system);
        for (sim::ProcId pw = 0; pw < procs; ++pw) {
          const double w =
              cost.exec_time_ms(dag, tj, system.processor(pw));
          const double comm = (pw == pk) ? 0.0 : avg_comm;
          best_pw = std::min(best_pw, oct[tj][pw] + w + comm);
        }
        worst_child = std::max(worst_child, best_pw);
      }
      oct[t][pk] = worst_child;  // exit tasks keep 0
    }
  }
  return oct;
}

inline std::vector<double> peft_rank_oct(
    const std::vector<std::vector<double>>& oct) {
  std::vector<double> rank(oct.size(), 0.0);
  for (std::size_t i = 0; i < oct.size(); ++i) {
    double sum = 0.0;
    for (const double v : oct[i]) sum += v;
    rank[i] = oct[i].empty() ? 0.0 : sum / static_cast<double>(oct[i].size());
  }
  return rank;
}

inline std::vector<std::vector<dag::NodeId>> per_proc_order(
    const StaticPlan& plan, std::size_t proc_count) {
  const std::vector<PlannedTask>& tasks = plan.tasks;
  std::vector<std::vector<dag::NodeId>> order(proc_count);
  std::vector<dag::NodeId> by_start(tasks.size());
  for (dag::NodeId n = 0; n < tasks.size(); ++n) by_start[n] = n;
  std::sort(by_start.begin(), by_start.end(),
            [&](dag::NodeId a, dag::NodeId b) {
              if (tasks[a].start != tasks[b].start)
                return tasks[a].start < tasks[b].start;
              return a < b;
            });
  for (const dag::NodeId n : by_start) {
    const PlannedTask& t = tasks[n];
    if (t.proc >= proc_count)
      throw std::logic_error("StaticPlan: task assigned to unknown processor");
    order[t.proc].push_back(t.node);
  }
  return order;
}

inline sim::TimeMs earliest_insertion_start(
    const std::vector<std::pair<sim::TimeMs, sim::TimeMs>>& busy,
    sim::TimeMs ready_time, sim::TimeMs duration) {
  sim::TimeMs candidate = ready_time;
  for (const auto& [start, finish] : busy) {
    if (candidate + duration <= start) return candidate;  // fits in this gap
    candidate = std::max(candidate, finish);
  }
  return candidate;  // after the last occupied interval
}

inline StaticPlan list_schedule(const dag::Dag& dag, const sim::System& system,
                                const sim::CostModel& cost,
                                const std::vector<double>& priority,
                                const ProcScore& score) {
  if (priority.size() != dag.node_count())
    throw std::invalid_argument("list_schedule: priority size mismatch");

  const std::size_t n = dag.node_count();
  StaticPlan plan;
  plan.tasks.resize(n);
  for (dag::NodeId i = 0; i < n; ++i) plan.tasks[i].node = i;

  std::vector<std::vector<std::pair<sim::TimeMs, sim::TimeMs>>> busy(
      system.proc_count());
  std::vector<std::size_t> unscheduled_preds(n);
  std::vector<bool> scheduled(n, false);
  std::vector<dag::NodeId> candidates;
  for (dag::NodeId i = 0; i < n; ++i) {
    unscheduled_preds[i] = dag.in_degree(i);
    if (unscheduled_preds[i] == 0) candidates.push_back(i);
  }

  for (std::size_t placed = 0; placed < n; ++placed) {
    if (candidates.empty())
      throw std::logic_error("list_schedule: no schedulable task (cycle?)");
    // Highest priority among precedence-free tasks; ties -> lower id.
    std::size_t pick = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (priority[candidates[i]] > priority[candidates[pick]]) pick = i;
    }
    const dag::NodeId node = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));

    sim::ProcId best_proc = sim::kInvalidProc;
    double best_score = std::numeric_limits<double>::infinity();
    sim::TimeMs best_est = 0.0;
    sim::TimeMs best_eft = 0.0;
    for (const sim::Processor& proc : system.processors()) {
      // Data-ready time with prefetched transfers (classic HEFT semantics).
      sim::TimeMs drt = 0.0;
      for (const dag::NodeId pred : dag.predecessors(node)) {
        const PlannedTask& pt = plan.tasks[pred];
        drt = std::max(drt, pt.finish + test::reference_transfer_ms(
                                            cost, system, dag, pred, node,
                                            system.processor(pt.proc), proc));
      }
      const sim::TimeMs w = cost.exec_time_ms(dag, node, proc);
      const sim::TimeMs est = earliest_insertion_start(busy[proc.id], drt, w);
      const sim::TimeMs eft = est + w;
      const double s = score(node, proc.id, est, eft);
      if (s < best_score) {
        best_score = s;
        best_proc = proc.id;
        best_est = est;
        best_eft = eft;
      }
    }

    PlannedTask& task = plan.tasks[node];
    task.proc = best_proc;
    task.start = best_est;
    task.finish = best_eft;
    scheduled[node] = true;

    auto& intervals = busy[best_proc];
    intervals.insert(
        std::upper_bound(intervals.begin(), intervals.end(),
                         std::pair<sim::TimeMs, sim::TimeMs>(best_est, best_eft)),
        {best_est, best_eft});

    for (const dag::NodeId succ : dag.successors(node)) {
      if (--unscheduled_preds[succ] == 0) candidates.push_back(succ);
    }
  }
  return plan;
}

/// The old StaticPolicyBase: releases each processor's next planned kernel
/// once it shows up in a scan of the whole ready set.
class StaticPolicyBase : public sim::Policy {
 public:
  bool is_dynamic() const final { return false; }

  void prepare(const dag::Dag& dag, const sim::System& system,
               const sim::CostModel& cost) final {
    plan_ = compute_plan(dag, system, cost);
    if (plan_.tasks.size() != dag.node_count())
      throw std::logic_error(name() + ": plan does not cover every kernel");
    order_ = per_proc_order(plan_, system.proc_count());
    next_.assign(system.proc_count(), 0);
  }

  void on_event(sim::SchedulerContext& ctx) final {
    // Release each processor's next planned kernel once the processor is
    // idle and the kernel's dependencies are satisfied.
    for (sim::ProcId p = 0; p < ctx.system().proc_count(); ++p) {
      if (!ctx.is_idle(p) || next_[p] >= order_[p].size()) continue;
      const dag::NodeId node = order_[p][next_[p]];
      const auto& ready = ctx.ready();
      if (std::find(ready.begin(), ready.end(), node) == ready.end()) continue;
      ctx.assign(node, p);
      ++next_[p];
    }
  }

  const StaticPlan& plan() const noexcept { return plan_; }

 protected:
  virtual StaticPlan compute_plan(const dag::Dag& dag,
                                  const sim::System& system,
                                  const sim::CostModel& cost) = 0;

 private:
  StaticPlan plan_;
  std::vector<std::vector<dag::NodeId>> order_;  // per proc, planned order
  std::vector<std::size_t> next_;                // cursor per proc
};

class Heft final : public StaticPolicyBase {
 public:
  std::string name() const override { return "reference-HEFT"; }

 protected:
  StaticPlan compute_plan(const dag::Dag& dag, const sim::System& system,
                          const sim::CostModel& cost) override {
    const std::vector<double> rank = heft_upward_ranks(dag, system, cost);
    // Processor selection: minimise the earliest finish time.
    return list_schedule(dag, system, cost, rank,
                         [](dag::NodeId, sim::ProcId, sim::TimeMs,
                            sim::TimeMs eft) { return eft; });
  }
};

class Peft final : public StaticPolicyBase {
 public:
  std::string name() const override { return "reference-PEFT"; }

 protected:
  StaticPlan compute_plan(const dag::Dag& dag, const sim::System& system,
                          const sim::CostModel& cost) override {
    const auto oct = peft_oct(dag, system, cost);
    const std::vector<double> rank = peft_rank_oct(oct);
    // Processor selection: minimise O_EFT = EFT + OCT(t, p).
    return list_schedule(dag, system, cost, rank,
                         [&oct](dag::NodeId node, sim::ProcId proc,
                                sim::TimeMs, sim::TimeMs eft) {
                           return eft + oct[node][proc];
                         });
  }
};

}  // namespace apt::policies::reference
