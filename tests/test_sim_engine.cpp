// Engine mechanics exercised through tiny hand-written policies, so every
// behaviour (ready propagation, queues, transfer semantics, overheads,
// stall detection) is pinned independently of the real policies.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "test_helpers.hpp"

namespace apt::sim {
namespace {

/// Assigns every ready kernel to processor 0 immediately (FIFO).
class AllToProcZero : public Policy {
 public:
  std::string name() const override { return "all-to-p0"; }
  bool is_dynamic() const override { return true; }
  void on_event(SchedulerContext& ctx) override {
    while (!ctx.ready().empty() && ctx.is_idle(0))
      ctx.assign(ctx.ready().front(), 0);
  }
};

/// Enqueues everything onto processor 0 (exercises the queue path).
class EnqueueAllToProcZero : public Policy {
 public:
  std::string name() const override { return "enqueue-to-p0"; }
  bool is_dynamic() const override { return true; }
  void on_event(SchedulerContext& ctx) override {
    const std::vector<dag::NodeId> ready = ctx.ready();
    for (dag::NodeId n : ready) ctx.enqueue(n, 0);
  }
};

/// Does nothing: must trigger the stall detector.
class DoNothing : public Policy {
 public:
  std::string name() const override { return "do-nothing"; }
  bool is_dynamic() const override { return true; }
  void on_event(SchedulerContext&) override {}
};

/// Static-semantics single-assignment policy for transfer-prefetch tests.
class PrefetchedToProc : public Policy {
 public:
  explicit PrefetchedToProc(std::vector<ProcId> placement)
      : placement_(std::move(placement)) {}
  std::string name() const override { return "prefetched"; }
  bool is_dynamic() const override { return false; }
  void on_event(SchedulerContext& ctx) override {
    const std::vector<dag::NodeId> ready = ctx.ready();
    for (dag::NodeId n : ready) {
      if (ctx.is_idle(placement_[n])) ctx.assign(n, placement_[n]);
    }
  }

 private:
  std::vector<ProcId> placement_;
};

MatrixCostModel unit_cost(std::size_t nodes, std::size_t procs, double t = 1.0) {
  return MatrixCostModel(std::vector<std::vector<TimeMs>>(
      nodes, std::vector<TimeMs>(procs, t)));
}

TEST(Engine, EmptyDagYieldsEmptyResult) {
  dag::Dag d;
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(1, 1);  // unused: the DAG is empty
  AllToProcZero policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
  EXPECT_TRUE(result.schedule.empty());
}

TEST(Engine, EmptyDagStillRunsPolicyPrepare) {
  // Regression: run() used to return before prepare() on an empty DAG, so
  // static policies saw an inconsistent lifecycle depending on the input.
  class PrepareProbe : public Policy {
   public:
    std::string name() const override { return "prepare-probe"; }
    bool is_dynamic() const override { return false; }
    void prepare(const dag::Dag&, const System&, const CostModel&) override {
      ++prepare_calls;
    }
    void on_event(SchedulerContext&) override {}
    int prepare_calls = 0;
  };
  dag::Dag d;
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(1, 1);
  PrepareProbe policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_EQ(policy.prepare_calls, 1);
  EXPECT_TRUE(result.schedule.empty());
}

TEST(Engine, EmptyDagWorksForEveryFactoryPolicy) {
  // Static policies must survive prepare() on the degenerate input too.
  dag::Dag d;
  const System sys = test::paper_system();
  for (const std::string spec : {"apt:4", "met", "spn", "ss", "ag", "heft",
                                 "peft", "minmin", "sufferage", "olb"}) {
    const auto policy = core::make_policy(spec);
    const LutCostModel cost(lut::paper_lookup_table(), sys);
    Engine engine(d, sys, cost);
    const auto result = engine.run(*policy);
    EXPECT_TRUE(result.schedule.empty()) << spec;
  }
}

TEST(Engine, ReadySetSurvivesOutOfOrderAssignment) {
  // Assign ready kernels in an order that punches holes all over the
  // ready list (last, first, middle) — the FIFO view the policy sees next
  // round must be exactly the un-assigned survivors in arrival order.
  class HolePuncher : public Policy {
   public:
    std::string name() const override { return "hole-puncher"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      if (pass_ == 0) {
        const std::vector<dag::NodeId> snapshot = ctx.ready();
        EXPECT_EQ(snapshot, (std::vector<dag::NodeId>{0, 1, 2, 3, 4, 5}));
        ctx.assign(5, 0);  // hole at the back
        EXPECT_EQ(ctx.ready(), (std::vector<dag::NodeId>{0, 1, 2, 3, 4}));
        ctx.assign(0, 1);  // hole at the front
        ctx.assign(2, 2);  // hole in the middle
        EXPECT_EQ(ctx.ready(), (std::vector<dag::NodeId>{1, 3, 4}));
        ++pass_;
        return;
      }
      // Later passes: drain whatever is left FIFO onto idle processors.
      while (!ctx.ready().empty() && !ctx.idle_processors().empty()) {
        const dag::NodeId n = ctx.ready().front();
        ctx.assign(n, ctx.idle_processors().front());
      }
    }
    int pass_ = 0;
  };
  dag::Dag d;
  for (int i = 0; i < 6; ++i) d.add_node("k", 1);
  const System sys = test::generic_system(3);
  const auto cost = unit_cost(6, 3, 2.0);
  HolePuncher policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 4.0);  // 6 kernels, 3 procs, 2 ms each
}

TEST(Engine, AgStyleDrainKeepsTheReadySetFifo) {
  // Every pass commits the whole ready set, punching holes at the back,
  // front, and middle in turn; after each commit ready() must hold exactly
  // the survivors in FIFO order.
  const System sys = test::paper_system();
  const LutCostModel cost(lut::paper_lookup_table(), sys);
  for (const dag::DfgType type : {dag::DfgType::Type1, dag::DfgType::Type2}) {
    const dag::Dag graph = dag::paper_graph(type, 4);
    test::DrainingReadyAuditor policy;
    test::run_and_validate(policy, graph, sys, cost);
    EXPECT_EQ(policy.commits, graph.node_count());
    EXPECT_EQ(policy.violations, 0u);
  }
}

TEST(Engine, SingleKernelRunsAtTimeZero) {
  dag::Dag d;
  d.add_node("k", 1);
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(1, 1, 5.0);
  AllToProcZero policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
  EXPECT_DOUBLE_EQ(result.schedule[0].ready_time, 0.0);
  EXPECT_DOUBLE_EQ(result.schedule[0].exec_start, 0.0);
  EXPECT_DOUBLE_EQ(result.schedule[0].finish_time, 5.0);
}

TEST(Engine, ChainSerialisesAndPropagatesReadyTimes) {
  const dag::Dag d = test::chain({{"a", 1}, {"b", 1}, {"c", 1}});
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(3, 1, 2.0);
  AllToProcZero policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].ready_time, 2.0);
  EXPECT_DOUBLE_EQ(result.schedule[2].ready_time, 4.0);
  for (const auto& k : result.schedule) EXPECT_DOUBLE_EQ(k.wait_ms(), 0.0);
}

TEST(Engine, IndependentKernelsSerialiseOnOneProcessorWithWaits) {
  dag::Dag d;
  for (int i = 0; i < 3; ++i) d.add_node("k", 1);
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(3, 1, 4.0);
  AllToProcZero policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 12.0);
  // λ waits accumulate: 0, 4, 8.
  EXPECT_DOUBLE_EQ(result.schedule[0].wait_ms(), 0.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].wait_ms(), 4.0);
  EXPECT_DOUBLE_EQ(result.schedule[2].wait_ms(), 8.0);
}

TEST(Engine, QueuePathMatchesDirectAssignmentTiming) {
  dag::Dag d;
  for (int i = 0; i < 3; ++i) d.add_node("k", 1);
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(3, 1, 4.0);
  EnqueueAllToProcZero policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 12.0);
  // Enqueued kernels are committed (assigned) at time 0 but wait inside
  // the queue — λ counts that queueing delay.
  for (const auto& k : result.schedule)
    EXPECT_DOUBLE_EQ(k.assign_time, 0.0);
  EXPECT_DOUBLE_EQ(result.schedule[0].wait_ms(), 0.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].wait_ms(), 4.0);
  EXPECT_DOUBLE_EQ(result.schedule[2].wait_ms(), 8.0);
}

TEST(Engine, StallThrows) {
  dag::Dag d;
  d.add_node("k", 1);
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(1, 1);
  DoNothing policy;
  Engine engine(d, sys, cost);
  EXPECT_THROW(engine.run(policy), std::logic_error);
}

TEST(Engine, AssignToBusyProcessorThrows) {
  class BadPolicy : public Policy {
   public:
    std::string name() const override { return "bad"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      const std::vector<dag::NodeId> ready = ctx.ready();
      for (dag::NodeId n : ready) ctx.assign(n, 0);  // 2nd assign: p0 busy
    }
  };
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(2, 1);
  BadPolicy policy;
  Engine engine(d, sys, cost);
  EXPECT_THROW(engine.run(policy), std::logic_error);
}

TEST(Engine, AssignUnreadyNodeThrows) {
  class EagerPolicy : public Policy {
   public:
    std::string name() const override { return "eager"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      if (!done_) {
        done_ = true;
        ctx.assign(1, 0);  // node 1 depends on node 0: not ready at t=0
      }
    }
    bool done_ = false;
  };
  const dag::Dag d = test::chain({{"a", 1}, {"b", 1}});
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(2, 1);
  EagerPolicy policy;
  Engine engine(d, sys, cost);
  EXPECT_THROW(engine.run(policy), std::logic_error);
}

TEST(Engine, AtAssignmentTransferStallsTheConsumer) {
  // a on p0, b on p1: b must stall for the edge transfer after assignment.
  const dag::Dag d = test::chain({{"a", 1}, {"b", 1}});
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{1.0, 100.0}, {100.0, 1.0}});
  cost.set_comm_cost(0, 1, 3.0);

  class SplitPolicy : public Policy {
   public:
    std::string name() const override { return "split"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      const std::vector<dag::NodeId> ready = ctx.ready();
      for (dag::NodeId n : ready) ctx.assign(n, n == 0 ? 0 : 1);
    }
  };
  SplitPolicy policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.schedule[1].assign_time, 1.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].exec_start, 4.0);  // +3ms transfer
  EXPECT_DOUBLE_EQ(result.schedule[1].transfer_stall_ms(), 3.0);
  EXPECT_DOUBLE_EQ(result.makespan, 5.0);
}

TEST(Engine, PrefetchedTransferOverlapsWithBusyProcessor) {
  // p1 is kept busy by an independent kernel while a's output transfers;
  // with Prefetched semantics b starts the moment p1 frees.
  dag::Dag d;
  d.add_node("a", 1);       // 0: on p0, 1 ms
  d.add_node("busy", 1);    // 1: on p1, 5 ms
  d.add_node("b", 1);       // 2: a->b, on p1
  d.add_edge(0, 2);
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{1.0, 99.0}, {99.0, 5.0}, {99.0, 1.0}});
  cost.set_comm_cost(0, 2, 3.0);  // arrives at t = 1 + 3 = 4 < 5

  PrefetchedToProc policy({0, 1, 1});
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.schedule[2].assign_time, 5.0);
  EXPECT_DOUBLE_EQ(result.schedule[2].exec_start, 5.0);  // data pre-arrived
  EXPECT_DOUBLE_EQ(result.schedule[2].transfer_stall_ms(), 0.0);
  EXPECT_DOUBLE_EQ(result.makespan, 6.0);
}

TEST(Engine, PrefetchedTransferStillStallsWhenDataIsLate) {
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_edge(0, 1);
  const System sys = test::generic_system(2);
  MatrixCostModel cost({{1.0, 99.0}, {99.0, 1.0}});
  cost.set_comm_cost(0, 1, 3.0);
  PrefetchedToProc policy({0, 1});
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  // b assigned as soon as ready (t=1) but data lands at t=4.
  EXPECT_DOUBLE_EQ(result.schedule[1].assign_time, 1.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].exec_start, 4.0);
  EXPECT_DOUBLE_EQ(result.schedule[1].transfer_stall_ms(), 3.0);
}

TEST(Engine, DecisionAndDispatchOverheadsDelayExecution) {
  dag::Dag d;
  d.add_node("k", 1);
  SystemConfig cfg;
  cfg.processors = {lut::ProcType::CPU};
  cfg.decision_overhead_ms = 0.5;
  cfg.dispatch_overhead_ms = 0.25;
  const System sys(cfg);
  const auto cost = unit_cost(1, 1, 2.0);
  AllToProcZero policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.schedule[0].assign_time, 0.5);
  EXPECT_DOUBLE_EQ(result.schedule[0].exec_start, 0.75);
  EXPECT_DOUBLE_EQ(result.makespan, 2.75);
}

TEST(Engine, SimultaneousCompletionsProcessInOneBatch) {
  // Two 2ms kernels on two procs feed a sink; both finish at t=2 and the
  // sink must see ready_time == 2 exactly once.
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_node("sink", 1);
  d.add_edge(0, 2);
  d.add_edge(1, 2);
  const System sys = test::generic_system(2);
  const auto cost = unit_cost(3, 2, 2.0);

  class TwoProcPolicy : public Policy {
   public:
    std::string name() const override { return "two"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      const std::vector<dag::NodeId> ready = ctx.ready();
      for (dag::NodeId n : ready) {
        const auto idle = ctx.idle_processors();
        if (!idle.empty()) ctx.assign(n, idle.front());
      }
    }
  };
  TwoProcPolicy policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.schedule[2].ready_time, 2.0);
  EXPECT_DOUBLE_EQ(result.makespan, 4.0);
}

TEST(Engine, ContextExposesQueueStateToPolicies) {
  class Introspector : public Policy {
   public:
    std::string name() const override { return "introspect"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      if (first_) {
        first_ = false;
        EXPECT_TRUE(ctx.is_idle(0));
        EXPECT_DOUBLE_EQ(ctx.busy_until(0), ctx.now());
        EXPECT_EQ(ctx.queue_length(0), 0u);
        EXPECT_DOUBLE_EQ(ctx.queued_work_ms(0), 0.0);
        ctx.enqueue(0, 0);
        ctx.enqueue(1, 0);
        // After enqueueing two 4ms kernels nothing has started yet:
        EXPECT_EQ(ctx.queue_length(0), 2u);
        EXPECT_DOUBLE_EQ(ctx.queued_work_ms(0), 8.0);
        EXPECT_DOUBLE_EQ(ctx.busy_until(0), 8.0);
        EXPECT_FALSE(ctx.is_idle(0));
      } else {
        // After the first completion one execution time is in the history.
        EXPECT_DOUBLE_EQ(ctx.recent_avg_exec_ms(0, 5), 4.0);
      }
    }
    bool first_ = true;
  };
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  const System sys = test::generic_system(1);
  const auto cost = unit_cost(2, 1, 4.0);
  Introspector policy;
  Engine engine(d, sys, cost);
  const auto result = engine.run(policy);
  EXPECT_DOUBLE_EQ(result.makespan, 8.0);
}

TEST(Engine, RecentAvgExecWindowsCorrectly) {
  class Probe : public Policy {
   public:
    std::string name() const override { return "probe"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      if (ctx.ready().empty()) {
        // all four done: history = [1, 2, 3, 4] on p0
        EXPECT_DOUBLE_EQ(ctx.recent_avg_exec_ms(0, 2), 3.5);
        EXPECT_DOUBLE_EQ(ctx.recent_avg_exec_ms(0, 4), 2.5);
        EXPECT_DOUBLE_EQ(ctx.recent_avg_exec_ms(0, 99), 2.5);
        EXPECT_DOUBLE_EQ(ctx.recent_avg_exec_ms(0, 0), 0.0);
        return;
      }
      if (ctx.is_idle(0)) ctx.assign(ctx.ready().front(), 0);
    }
  };
  const dag::Dag d = test::chain({{"a", 1}, {"b", 1}, {"c", 1}, {"d", 1}});
  const System sys = test::generic_system(1);
  MatrixCostModel cost({{1.0}, {2.0}, {3.0}, {4.0}});
  Probe policy;
  Engine engine(d, sys, cost);
  engine.run(policy);
}

TEST(Engine, InputTransferUsesWorstPredecessorEdge) {
  class Check : public Policy {
   public:
    std::string name() const override { return "check"; }
    bool is_dynamic() const override { return true; }
    void on_event(SchedulerContext& ctx) override {
      const std::vector<dag::NodeId> ready = ctx.ready();
      for (dag::NodeId n : ready) {
        if (n == 2) {
          // preds on p0 and p1; transfers to p2 are 5 and 2 -> max 5.
          EXPECT_DOUBLE_EQ(ctx.input_transfer_ms(2, 2), 5.0);
          EXPECT_DOUBLE_EQ(ctx.input_transfer_ms(2, 0), 2.0);  // only 1->0
          ctx.assign(2, 2);
        } else {
          ctx.assign(n, static_cast<ProcId>(n));
        }
      }
    }
  };
  dag::Dag d;
  d.add_node("a", 1);
  d.add_node("b", 1);
  d.add_node("c", 1);
  d.add_edge(0, 2);
  d.add_edge(1, 2);
  const System sys = test::generic_system(3);
  MatrixCostModel cost(
      {{1.0, 9.0, 9.0}, {9.0, 1.0, 9.0}, {9.0, 9.0, 1.0}});
  cost.set_comm_cost(0, 2, 5.0);
  cost.set_comm_cost(1, 2, 2.0);
  Check policy;
  Engine engine(d, sys, cost);
  engine.run(policy);
}

}  // namespace
}  // namespace apt::sim
