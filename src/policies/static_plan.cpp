#include "policies/static_plan.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>

namespace apt::policies {

sim::TimeMs StaticPlan::planned_makespan() const {
  sim::TimeMs m = 0.0;
  for (const PlannedTask& t : tasks) m = std::max(m, t.finish);
  return m;
}

std::vector<std::vector<dag::NodeId>> StaticPlan::per_proc_order(
    std::size_t proc_count) const {
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

void StaticPolicyBase::prepare(const dag::Dag& dag, const sim::System& system,
                               const sim::CostModel& cost) {
  plan_ = compute_plan(dag, system, cost);
  if (plan_.tasks.size() != dag.node_count())
    throw std::logic_error(name() + ": plan does not cover every kernel");
  order_ = plan_.per_proc_order(system.proc_count());
  next_.assign(system.proc_count(), 0);
  ready_.assign(dag.node_count(), 0);
  seen_ = 0;
}

void StaticPolicyBase::on_event(sim::SchedulerContext& ctx) {
  // Flag the kernels that became ready since the last pass. Only this
  // policy's commits take kernels out of the ready set, so the first seen_
  // ready kernels are the ones flagged earlier and the rest are new.
  for (const dag::NodeId node : ctx.ready_from(seen_)) {
    ready_[node] = 1;
    ++seen_;
  }
  // Release each processor's next planned kernel once the processor is idle
  // and the kernel's dependencies are satisfied.
  for (sim::ProcId p = 0; p < ctx.system().proc_count(); ++p) {
    if (!ctx.is_idle(p) || next_[p] >= order_[p].size()) continue;
    const dag::NodeId node = order_[p][next_[p]];
    if (!ready_[node]) continue;
    ctx.assign(node, p);
    ready_[node] = 0;
    --seen_;
    ++next_[p];
  }
}

sim::TimeMs earliest_insertion_start(
    const std::vector<std::pair<sim::TimeMs, sim::TimeMs>>& busy,
    sim::TimeMs ready_time, sim::TimeMs duration) {
  sim::TimeMs candidate = ready_time;
  for (const auto& [start, finish] : busy) {
    if (candidate + duration <= start) return candidate;  // fits in this gap
    candidate = std::max(candidate, finish);
  }
  return candidate;  // after the last occupied interval
}

StaticPlan list_schedule(const dag::Dag& dag, const sim::System& system,
                         const sim::CostModel& cost,
                         const std::vector<double>& priority,
                         const ProcScore& score) {
  std::optional<sim::PrecomputedCostModel> storage;
  return list_schedule(dag, sim::dense_cost_model(dag, system, cost, storage),
                       priority, score);
}

StaticPlan list_schedule(const dag::Dag& dag,
                         const sim::PrecomputedCostModel& dense,
                         const std::vector<double>& priority,
                         const ProcScore& score) {
  if (priority.size() != dag.node_count())
    throw std::invalid_argument("list_schedule: priority size mismatch");

  const std::size_t n = dag.node_count();
  const std::size_t procs = dense.proc_count();
  StaticPlan plan;
  plan.tasks.resize(n);
  for (dag::NodeId i = 0; i < n; ++i) plan.tasks[i].node = i;

  std::vector<std::vector<std::pair<sim::TimeMs, sim::TimeMs>>> busy(procs);
  std::vector<std::size_t> unscheduled_preds(n);
  std::vector<dag::NodeId> candidates;
  for (dag::NodeId i = 0; i < n; ++i) {
    unscheduled_preds[i] = dag.in_degree(i);
    if (unscheduled_preds[i] == 0) candidates.push_back(i);
  }
  /// One input of the task being placed: its predecessor's planned finish
  /// and processor, and the weight of the edge between them.
  struct Input {
    sim::TimeMs finish;
    sim::ProcId from;
    double weight;
  };
  std::vector<Input> inputs;
  const sim::PairTables& prices = dense.prices();

  for (std::size_t placed = 0; placed < n; ++placed) {
    if (candidates.empty())
      throw std::logic_error("list_schedule: no schedulable task (cycle?)");
    // Highest priority among precedence-free tasks; ties -> the earliest
    // candidate, i.e. the task freed first (entry tasks in id order).
    std::size_t pick = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (priority[candidates[i]] > priority[candidates[pick]]) pick = i;
    }
    const dag::NodeId node = candidates[pick];
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(pick));

    inputs.clear();
    const dag::NodeRange preds = dag.predecessors(node);
    const double* weight = dense.in_weights(node);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      const PlannedTask& pt = plan.tasks[preds[k]];
      inputs.push_back({pt.finish, pt.proc, weight[k]});
    }
    const sim::TimeMs* exec = dense.exec_row(node);
    sim::ProcId best_proc = sim::kInvalidProc;
    double best_score = std::numeric_limits<double>::infinity();
    sim::TimeMs best_est = 0.0;
    sim::TimeMs best_eft = 0.0;
    for (sim::ProcId proc = 0; proc < procs; ++proc) {
      // Data-ready time with prefetched transfers (classic HEFT semantics).
      sim::TimeMs drt = 0.0;
      for (const Input& in : inputs)
        drt = std::max(drt, in.finish +
                                prices.transfer_ms(in.weight, in.from, proc));
      const sim::TimeMs w = exec[proc];
      const sim::TimeMs est = earliest_insertion_start(busy[proc], drt, w);
      const sim::TimeMs eft = est + w;
      const double s = score(node, proc, est, eft);
      if (s < best_score) {
        best_score = s;
        best_proc = proc;
        best_est = est;
        best_eft = eft;
      }
    }

    PlannedTask& task = plan.tasks[node];
    task.proc = best_proc;
    task.start = best_est;
    task.finish = best_eft;

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

}  // namespace apt::policies
