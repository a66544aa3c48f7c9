#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "net/transfer_manager.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"
#include "sim/precomputed_cost_model.hpp"
#include "sim/ready_set.hpp"
#include "util/contracts.hpp"
#include "util/rolling_quantile.hpp"

namespace apt::sim {

namespace {

/// What a popped event means. The numeric order is the processing order at
/// equal timestamps: primary completions resolve races before replica
/// completions (a tie goes to the primary), and hedge checks only fire
/// after every completion at that instant has retired its kernel (a kernel
/// finishing exactly at its threshold is never hedged).
enum class EventKind : std::uint8_t {
  kCompletion = 0,
  kReplica = 1,
  kHedgeCheck = 2,
};

/// Timed event in the event queue.
struct Completion {
  TimeMs time;
  dag::NodeId node;
  EventKind kind = EventKind::kCompletion;

  /// Min-heap ordering: earliest time first, ties by kind then ascending
  /// node id.
  bool operator>(const Completion& other) const noexcept {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    return node > other.node;
  }
};

}  // namespace

/// Engine internals: owns all mutable per-run state and implements the
/// SchedulerContext interface shown to the policy.
///
/// Hot-path bookkeeping is index based: the ready set removes a committed
/// kernel in place, found by binary search on its ready sequence number
/// (sim::ReadySet), the idle-processor list is cached and rebuilt only
/// after the processor states actually changed, and queued kernels carry
/// their execution time so busy_until()/queued_work_ms() never re-query the
/// cost model.
class Engine::Context final : public SchedulerContext {
 public:
  Context(const dag::Dag& dag, const System& system, const CostModel& cost,
          Policy& policy, const EngineOptions& options)
      : dag_(dag),
        system_(system),
        cost_(cost),
        policy_(policy),
        noise_(options.noise),
        hedging_(options.hedging),
        hedge_window_(options.hedging.window),
        topology_(system.topology()),
        contended_(topology_.contended()),
        sink_(options.sink),
        profile_(options.profile),
        node_state_(dag.node_count()),
        proc_state_(system.proc_count()) {
    ready_.resize(dag.node_count());
    idle_cache_.reserve(system.proc_count());
    if (contended_) {
      tm_.emplace(topology_);
      tm_->set_profile(profile_);
    }
  }

  SimResult simulate() {
    seed_ready_set();
    for (;;) {
      {
        obs::ScopedTimer timer(profile_, obs::Timer::kPolicyPass);
        policy_.on_event(*this);
      }
      if (profile_) profile_->add(obs::Counter::kPolicyPasses);
      drain_queues();
      if (done_count_ == dag_.node_count()) break;
      if (events_.empty() && releases_.empty() && !(tm_ && tm_->busy())) {
        throw std::logic_error(
            "Engine: policy '" + policy_.name() +
            "' stalled: work remains but nothing is executing");
      }
      advance_to_next_event();
    }
    SimResult result;
    result.schedule.resize(dag_.node_count());
    TimeMs makespan = 0.0;
    for (dag::NodeId n = 0; n < dag_.node_count(); ++n) {
      result.schedule[n] = node_state_[n].record;
      makespan = std::max(makespan, node_state_[n].record.finish_time);
    }
    result.makespan = makespan;
    result.transfers = std::move(transfer_records_);
    result.hedges = std::move(hedges_);
    return result;
  }

  // --- SchedulerContext -----------------------------------------------------

  TimeMs now() const override { return now_; }
  const dag::Dag& dag() const override { return dag_; }
  const System& system() const override { return system_; }
  const CostModel& cost_model() const override { return cost_; }

  const std::vector<dag::NodeId>& ready() const override {
    return ready_.nodes();
  }

  bool is_idle(ProcId proc) const override {
    const ProcState& ps = proc_state_.at(proc);
    return !ps.running.has_value() && ps.queue.empty();
  }

  const std::vector<ProcId>& idle_processors() const override {
    if (idle_dirty_) {
      idle_cache_.clear();
      for (ProcId p = 0; p < proc_state_.size(); ++p) {
        if (is_idle(p)) idle_cache_.push_back(p);
      }
      idle_dirty_ = false;
    }
    return idle_cache_;
  }

  TimeMs busy_until(ProcId proc) const override {
    const ProcState& ps = proc_state_.at(proc);
    if (!ps.running.has_value() && ps.queue.empty()) return now_;
    // A running kernel still stalled on contended input data has no finish
    // time yet; estimate with its (known) execution time from now.
    TimeMs t = now_;
    if (ps.running) {
      const NodeState& rs = node_state_[*ps.running];
      t = rs.exec_started ? rs.record.finish_time : now_ + rs.record.exec_ms;
    }
    for (const QueuedKernel& q : ps.queue) t += q.exec_ms;
    return t;
  }

  std::size_t queue_length(ProcId proc) const override {
    return proc_state_.at(proc).queue.size();
  }

  TimeMs queued_work_ms(ProcId proc) const override {
    const ProcState& ps = proc_state_.at(proc);
    TimeMs work = 0.0;
    if (ps.running) {
      const NodeState& rs = node_state_[*ps.running];
      work += rs.exec_started
                  ? std::max(0.0, rs.record.finish_time - now_)
                  : rs.record.exec_ms;
    }
    for (const QueuedKernel& q : ps.queue) work += q.exec_ms;
    return work;
  }

  TimeMs recent_avg_exec_ms(ProcId proc, std::size_t k) const override {
    const ProcState& ps = proc_state_.at(proc);
    if (ps.exec_history.empty() || k == 0) return 0.0;
    const std::size_t take = std::min(k, ps.exec_history.size());
    double sum = 0.0;
    for (std::size_t i = ps.exec_history.size() - take;
         i < ps.exec_history.size(); ++i)
      sum += ps.exec_history[i];
    return sum / static_cast<double>(take);
  }

  TimeMs exec_time_ms(dag::NodeId node, ProcId proc) const override {
    return cost_.exec_time_ms(dag_, node, system_.processor(proc));
  }

  // Execution times are fixed for the whole run, so the min/argmin scans
  // the MET-family policies repeat for every ready node at every event are
  // computed once per node and served from a cache thereafter. The fill
  // loop is the base-class scan verbatim — same doubles, same tie-break.
  TimeMs min_exec_time_ms(dag::NodeId node) const override {
    fill_min_exec(node);
    return min_exec_cache_[node];
  }

  ProcId min_exec_proc(dag::NodeId node) const override {
    fill_min_exec(node);
    return min_proc_cache_[node];
  }

  TimeMs input_transfer_ms(dag::NodeId node, ProcId proc) const override {
    // Comm-adjusted automatically under a contended topology: run()
    // installs a TopologyCostModel as cost_, so this prices edges against
    // the fabric (the uncontended share — the simulated transfer can only
    // be slower under contention).
    TimeMs worst = 0.0;
    const Processor& to = system_.processor(proc);
    for (const dag::NodeId pred : dag_.predecessors(node)) {
      const ScheduledKernel& rec = node_state_[pred].record;
      // Internal invariant (not policy-misuse validation): the engine only
      // offers nodes whose predecessors were all scheduled.
      APT_ASSERT(rec.proc != kInvalidProc,
                 "predecessor %u of node %u not yet scheduled", pred, node);
      worst = std::max(worst, cost_.transfer_time_ms(
                                  dag_, pred, node, system_.processor(rec.proc),
                                  to));
    }
    return worst;
  }

  TransferEstimate transfer_estimate(dag::NodeId node,
                                     ProcId proc) const override {
    TransferEstimate est;
    est.noise = noise_;
    const Processor& to = system_.processor(proc);
    ProcId worst_from = proc;  // local: contributes no link
    for (const dag::NodeId pred : dag_.predecessors(node)) {
      const ScheduledKernel& rec = node_state_[pred].record;
      APT_ASSERT(rec.proc != kInvalidProc,
                 "predecessor %u of node %u not yet scheduled", pred, node);
      // Same call, same order, same std::max as input_transfer_ms above —
      // stall_ms is bit-identical to the legacy scalar.
      const TimeMs edge = cost_.transfer_time_ms(
          dag_, pred, node, system_.processor(rec.proc), to);
      if (edge > est.stall_ms) {
        est.stall_ms = edge;
        worst_from = rec.proc;
      }
      if (!tm_) continue;
      // Backlog scan: predicted drain of each route link's in-flight
      // traffic at the current max-min rates (tm_ is advanced to now_
      // before every policy pass). The most backlogged link across the
      // predecessor routes pins the estimate.
      for (const net::LinkId l : topology_.route(rec.proc, proc)) {
        const TimeMs drain = tm_->link_drain_ms(l);
        if (drain > est.link_queueing_ms) {
          est.link_queueing_ms = drain;
          est.bottleneck_link = l;
        }
      }
    }
    // Idle fabric (or ideal topology): pin the estimate to the unloaded
    // bottleneck of the worst predecessor's route, kNoLink when local.
    if (est.bottleneck_link == net::kNoLink && contended_ &&
        worst_from != proc)
      est.bottleneck_link = topology_.bottleneck_link(worst_from, proc);
    return est;
  }

  const NoiseSpec& noise() const override { return noise_; }

  void assign(dag::NodeId node, ProcId proc, bool alternative) override {
    if (!is_idle(proc))
      throw std::logic_error("Engine::assign: processor " +
                             system_.processor(proc).name + " is not idle");
    take_from_ready(node);
    note_decision(node, proc, "assign");
    start_kernel(node, proc, alternative);
  }

  void enqueue(dag::NodeId node, ProcId proc, bool alternative) override {
    take_from_ready(node);
    note_decision(node, proc, "enqueue");
    NodeState& ns = node_state_[node];
    ns.record.assign_time = now_ + system_.config().decision_overhead_ms;
    ns.record.alternative = alternative;
    ns.enqueued_at = now_;
    // The destination is fixed now, so the execution time can be cached for
    // every later busy_until()/queued_work_ms() query.
    proc_state_.at(proc).queue.push_back(
        {node, cost_.exec_time_ms(dag_, node, system_.processor(proc))});
    idle_dirty_ = true;
    // The enqueue fixed the destination, so under a contended topology the
    // input data starts moving now — it may arrive while the kernel is
    // still waiting in the queue (the prefetch the legacy path models
    // analytically).
    if (contended_)
      begin_comm(node, proc,
                 now_ + system_.config().decision_overhead_ms +
                     system_.config().dispatch_overhead_ms);
    // drain_queues() (called right after the policy pass) starts it if the
    // processor is actually free.
  }

 private:
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  void fill_min_exec(dag::NodeId node) const {
    if (min_exec_cache_.empty()) {
      min_exec_cache_.assign(dag_.node_count(),
                             std::numeric_limits<TimeMs>::quiet_NaN());
      min_proc_cache_.assign(dag_.node_count(), 0);
    }
    if (!std::isnan(min_exec_cache_[node])) return;
    TimeMs best = std::numeric_limits<TimeMs>::infinity();
    ProcId best_proc = 0;
    for (ProcId p = 0; p < system_.proc_count(); ++p) {
      const TimeMs t = exec_time_ms(node, p);
      if (t < best) {
        best = t;
        best_proc = p;
      }
    }
    min_exec_cache_[node] = best;
    min_proc_cache_[node] = best_proc;
  }

  struct NodeState {
    ScheduledKernel record;
    bool ready = false;
    bool assigned = false;
    bool done = false;
    std::size_t remaining_preds = 0;
    TimeMs enqueued_at = std::numeric_limits<TimeMs>::quiet_NaN();

    // --- straggler hedging (unused when hedging is disabled) ---
    TimeMs nominal_exec_ms = 0.0;  ///< pre-noise exec time on record.proc
    bool hedged = false;           ///< a hedge decision was made (at most 1)
    bool replica_outstanding = false;  ///< replica launched, race unresolved
    std::size_t hedge_idx = kNoPos;    ///< index into hedges_
    ProcId replica_proc = kInvalidProc;
    TimeMs replica_exec_start = 0.0;
    TimeMs replica_exec_ms = 0.0;
    TimeMs replica_transfer_ms = 0.0;
    TimeMs replica_finish = 0.0;
    double replica_mult = 1.0;

    // --- contended-topology comm phase (unused under ideal) ---
    bool exec_started = false;   ///< computation has begun (finish_time set)
    bool holds_proc = false;     ///< occupies its processor, maybe stalled
    std::size_t pending_msgs = 0;  ///< input messages still in flight
    TimeMs occupied_at = 0.0;    ///< when the processor was dedicated
    TimeMs data_ready_at = 0.0;  ///< latest input delivery (or dispatch)
  };

  /// A kernel waiting in a processor's FIFO queue with its (destination
  /// fixed, hence known) execution time.
  struct QueuedKernel {
    dag::NodeId node;
    TimeMs exec_ms;
  };

  struct ProcState {
    std::optional<dag::NodeId> running;
    std::deque<QueuedKernel> queue;
    std::vector<TimeMs> exec_history;  ///< completed exec times, oldest first
  };

  void seed_ready_set() {
    for (dag::NodeId n = 0; n < dag_.node_count(); ++n) {
      NodeState& ns = node_state_[n];
      ns.record.node = n;
      ns.remaining_preds = dag_.in_degree(n);
      if (ns.remaining_preds == 0) {
        if (dag_.node(n).release_ms <= now_) {
          mark_ready(n);
        } else {
          releases_.push(Completion{dag_.node(n).release_ms, n});
        }
      }
    }
  }

  void mark_ready(dag::NodeId node) {
    if (profile_) profile_->add(obs::Counter::kReadyMarked);
    NodeState& ns = node_state_[node];
    ns.ready = true;
    ns.record.ready_time = now_;
    ready_.push_back(node);
  }

  void take_from_ready(dag::NodeId node) {
    NodeState& ns = node_state_.at(node);
    if (!ns.ready || ns.assigned)
      throw std::logic_error("Engine: node " + std::to_string(node) +
                             " is not in the ready set");
    ns.assigned = true;
    ready_.erase(node);
  }

  // --- observability (src/obs) ---------------------------------------------
  // Every site is a null-guarded read of already-committed facts; with no
  // sink/profile attached each collapses to one branch.

  void note_decision(dag::NodeId node, ProcId proc, const char* detail) {
    if (profile_) profile_->add(obs::Counter::kPolicyDecisions);
    if (!sink_) return;
    obs::InstantEvent ev;
    ev.kind = obs::InstantKind::kDecision;
    ev.node = node;
    ev.proc = proc;
    ev.time = now_;
    ev.detail = detail;
    sink_->instant(ev);
  }

  /// Winner span of a retiring kernel (sink_ checked by the caller).
  void emit_kernel_span(const NodeState& ns, dag::NodeId node) {
    obs::KernelSpan span;
    span.node = node;
    span.kernel = dag_.node(node).kernel.c_str();
    span.proc = ns.record.proc;
    span.occupied_from = ns.record.occupied_from();
    span.exec_start = ns.record.exec_start;
    span.finish = ns.record.finish_time;
    span.noise_mult = ns.record.noise_mult;
    span.alternative = ns.record.alternative;
    if (ns.hedge_idx != kNoPos)
      span.role = hedges_[ns.hedge_idx].replica_won
                      ? obs::SpanRole::kHedgeReplica
                      : obs::SpanRole::kHedgePrimary;
    sink_->kernel_span(span);
  }

  /// Cancelled losing attempt of a hedge race (sink_ checked by caller).
  void emit_loser_span(dag::NodeId node, ProcId proc, TimeMs occupied_from,
                       TimeMs exec_start, TimeMs cancelled, double mult,
                       obs::SpanRole role) {
    obs::KernelSpan span;
    span.node = node;
    span.kernel = dag_.node(node).kernel.c_str();
    span.proc = proc;
    span.occupied_from = occupied_from;
    span.exec_start = exec_start;
    span.finish = cancelled;
    span.noise_mult = mult;
    span.role = role;
    span.cancelled = true;
    sink_->kernel_span(span);
  }

  /// Completed fabric message (sink_ checked by the caller).
  void emit_transfer_span(const TransferRecord& record) {
    obs::TransferSpan span;
    span.src = record.src;
    span.dst = record.dst;
    span.from = record.from;
    span.to = record.to;
    span.path = record.path.data();
    span.hops = record.path.size();
    span.bytes = record.bytes;
    span.start = record.start;
    span.drain_start = record.drain_start;
    span.finish = record.finish;
    sink_->transfer_span(span);
  }

  /// Payload of the edge out of `pred`: its output in bytes.
  double edge_bytes(dag::NodeId pred) const {
    return edge_payload_bytes(dag_, pred,
                              system_.config().bytes_per_element);
  }

  /// Contended mode: creates one fabric message per non-local input edge,
  /// entering its route at the node's dispatch instant. Called exactly
  /// once per node, when the policy commits it (assign or enqueue fixes
  /// the destination).
  void begin_comm(dag::NodeId node, ProcId proc, TimeMs dispatched) {
    NodeState& ns = node_state_[node];
    ns.data_ready_at = dispatched;
    for (const dag::NodeId pred : dag_.predecessors(node)) {
      const ScheduledKernel& rec = node_state_[pred].record;
      const net::Topology::Route route = topology_.route(rec.proc, proc);
      if (route.empty()) continue;  // same processor, socket, or cell
      const double bytes = edge_bytes(pred);
      const std::uint64_t tag = transfer_records_.size();
      TransferRecord record;
      record.src = pred;
      record.dst = node;
      record.from = rec.proc;
      record.to = proc;
      record.path.assign(route.begin(), route.end());
      record.bytes = bytes;
      record.start = dispatched;
      record.drain_start =
          dispatched + topology_.route_latency_ms(rec.proc, proc);
      transfer_records_.push_back(std::move(record));
      tm_->start(tag, bytes, rec.proc, proc, dispatched);
      ++ns.pending_msgs;
      if (profile_) profile_->add(obs::Counter::kTransfersStarted);
    }
  }

  /// Contended mode: all inputs are in — computation begins at `at`.
  void begin_exec(dag::NodeId node, TimeMs at) {
    NodeState& ns = node_state_[node];
    ns.exec_started = true;
    ns.record.exec_start = at;
    ns.record.transfer_ms = at - ns.occupied_at;
    ns.record.finish_time = at + ns.record.exec_ms;
    events_.push(Completion{ns.record.finish_time, node});
  }

  /// One input message delivered; start the kernel when it was the last
  /// and the kernel already holds its processor.
  void on_delivery(const net::Delivery& delivery) {
    TransferRecord& record = transfer_records_[delivery.tag];
    record.finish = now_;
    if (sink_) emit_transfer_span(record);
    NodeState& ns = node_state_[record.dst];
    --ns.pending_msgs;
    ns.data_ready_at = std::max(ns.data_ready_at, now_);
    if (ns.pending_msgs == 0 && ns.holds_proc)
      begin_exec(record.dst, std::max(ns.occupied_at, ns.data_ready_at));
  }

  /// Stamps the realized execution time of `node` on `proc`: the cost
  /// model's nominal duration times the per-kernel noise multiplier
  /// (exactly 1.0 — and no RNG consulted — when noise is disabled).
  void stamp_exec_time(NodeState& ns, dag::NodeId node, TimeMs nominal) {
    ns.nominal_exec_ms = nominal;
    ns.record.noise_mult =
        noise_.enabled() ? noise_multiplier(noise_, kNoiseInstance, node, 0)
                         : 1.0;
    ns.record.exec_ms = nominal * ns.record.noise_mult;
  }

  /// Starts `node` on the idle processor `proc` at the current time.
  void start_kernel(dag::NodeId node, ProcId proc, bool alternative) {
    NodeState& ns = node_state_[node];
    const SystemConfig& cfg = system_.config();
    ns.record.proc = proc;
    ns.record.alternative = alternative;
    ns.record.assign_time = now_ + cfg.decision_overhead_ms;
    const TimeMs dispatched = ns.record.assign_time + cfg.dispatch_overhead_ms;
    if (contended_) {
      // The processor is dedicated from dispatch; computation begins when
      // the simulated input messages are all delivered.
      stamp_exec_time(ns, node,
                      cost_.exec_time_ms(dag_, node, system_.processor(proc)));
      ns.occupied_at = dispatched;
      ns.holds_proc = true;
      proc_state_[proc].running = node;
      idle_dirty_ = true;
      begin_comm(node, proc, dispatched);
      if (ns.pending_msgs == 0) begin_exec(node, ns.data_ready_at);
      return;
    }
    ns.record.transfer_ms = transfer_delay(node, proc, dispatched);
    ns.record.exec_start = dispatched + ns.record.transfer_ms;
    stamp_exec_time(ns, node,
                    cost_.exec_time_ms(dag_, node, system_.processor(proc)));
    ns.record.finish_time = ns.record.exec_start + ns.record.exec_ms;
    ns.exec_started = true;
    proc_state_[proc].running = node;
    idle_dirty_ = true;
    events_.push(Completion{ns.record.finish_time, node});
    if (hedging_.enabled) schedule_hedge_check(node);
  }

  /// Pops queue heads onto idle processors. (Profiled as its own phase;
  /// the calls from advance_to_next_event nest inside that timer.)
  void drain_queues() {
    obs::ScopedTimer timer(profile_, obs::Timer::kDrainQueues);
    for (ProcId p = 0; p < proc_state_.size(); ++p) {
      ProcState& ps = proc_state_[p];
      if (ps.running.has_value() || ps.queue.empty()) continue;
      const QueuedKernel next = ps.queue.front();
      ps.queue.pop_front();
      start_queued_kernel(next, p);
    }
  }

  /// Starts a previously enqueued kernel whose transfer began at enqueue
  /// time (the destination was fixed then, so the data could prefetch).
  void start_queued_kernel(const QueuedKernel& queued, ProcId proc) {
    NodeState& ns = node_state_[queued.node];
    const SystemConfig& cfg = system_.config();
    if (contended_) {
      // Messages have been in flight since the enqueue; the processor
      // picks the kernel up now and stalls until the last one lands.
      ns.record.proc = proc;
      stamp_exec_time(ns, queued.node, queued.exec_ms);
      ns.occupied_at = now_;
      ns.holds_proc = true;
      proc_state_[proc].running = queued.node;
      idle_dirty_ = true;
      if (ns.pending_msgs == 0)
        begin_exec(queued.node, std::max(now_, ns.data_ready_at));
      return;
    }
    const TimeMs transfer = input_transfer_ms(queued.node, proc);
    const TimeMs data_ready =
        ns.enqueued_at + cfg.decision_overhead_ms + cfg.dispatch_overhead_ms +
        transfer;
    // assign_time was stamped at enqueue; the processor picks the kernel up
    // now, and computation starts once the (possibly prefetched) data is in.
    // queued.exec_ms stayed nominal for the queue-estimate queries; the
    // noise draw lands only now, on the realized duration.
    ns.record.proc = proc;
    ns.record.exec_start = std::max(now_, data_ready);
    ns.record.transfer_ms = std::max(0.0, data_ready - now_);
    stamp_exec_time(ns, queued.node, queued.exec_ms);
    ns.record.finish_time = ns.record.exec_start + ns.record.exec_ms;
    ns.exec_started = true;
    proc_state_[proc].running = queued.node;
    idle_dirty_ = true;
    events_.push(Completion{ns.record.finish_time, queued.node});
    if (hedging_.enabled) schedule_hedge_check(queued.node);
  }

  /// Transfer stall for a direct assignment, honouring the policy's
  /// transfer semantics.
  TimeMs transfer_delay(dag::NodeId node, ProcId proc, TimeMs from_time) {
    if (policy_.transfer_semantics() == TransferSemantics::AtAssignment)
      return input_transfer_ms(node, proc);
    // Prefetched: each edge's data has been moving since the predecessor
    // finished; the kernel only stalls for whatever is still in flight.
    TimeMs data_ready = from_time;
    const Processor& to = system_.processor(proc);
    for (const dag::NodeId pred : dag_.predecessors(node)) {
      const ScheduledKernel& rec = node_state_[pred].record;
      const TimeMs arrival =
          rec.finish_time + cost_.transfer_time_ms(
                                dag_, pred, node, system_.processor(rec.proc), to);
      data_ready = std::max(data_ready, arrival);
    }
    return data_ready - from_time;
  }

  // --- straggler hedging --------------------------------------------------

  /// Elapsed primary runtime that triggers a hedge for a kernel with the
  /// given nominal duration: nominal × (rolling tail inflation, once the
  /// window is trustworthy) × the safety factor. Never below nominal ×
  /// factor, so hedging only ever fires on kernels already running late.
  TimeMs hedge_threshold_ms(TimeMs nominal) const {
    double inflation = 1.0;
    if (hedge_window_.count() >= hedging_.min_samples)
      inflation = std::max(1.0, hedge_window_.quantile(hedging_.quantile));
    return nominal * inflation * hedging_.threshold_factor;
  }

  void schedule_hedge_check(dag::NodeId node) {
    const NodeState& ns = node_state_[node];
    events_.push(Completion{
        ns.record.exec_start + hedge_threshold_ms(ns.nominal_exec_ms), node,
        EventKind::kHedgeCheck});
  }

  /// A hedge check came due at `t`. The threshold is re-derived from the
  /// CURRENT rolling window (it may have grown since the check was armed);
  /// if the kernel is not yet overdue under the fresh threshold the check
  /// re-arms at the new instant, otherwise a replica launches — once per
  /// kernel, and only if some processor is idle right now (hedging never
  /// preempts or queues; a saturated platform has no spare capacity worth
  /// burning on duplicates).
  void process_hedge_check(dag::NodeId node, TimeMs t) {
    NodeState& ns = node_state_[node];
    if (ns.done || ns.hedged || !ns.exec_started) return;
    const TimeMs due =
        ns.record.exec_start + hedge_threshold_ms(ns.nominal_exec_ms);
    if (due > t) {
      events_.push(Completion{due, node, EventKind::kHedgeCheck});
      return;
    }
    ns.hedged = true;  // one decision per kernel, launched or dropped
    const std::vector<ProcId>& idle = idle_processors();
    if (idle.empty()) return;
    // Fastest idle destination by NOMINAL time (the realized duration is
    // unknowable before it happens); idle list ascends, so ties break to
    // the lowest processor id.
    ProcId best = idle.front();
    TimeMs best_ms = cost_.exec_time_ms(dag_, node, system_.processor(best));
    for (std::size_t i = 1; i < idle.size(); ++i) {
      const TimeMs ms =
          cost_.exec_time_ms(dag_, node, system_.processor(idle[i]));
      if (ms < best_ms) {
        best = idle[i];
        best_ms = ms;
      }
    }
    launch_replica(node, best, best_ms, t);
  }

  /// Launches the hedged replica of `node` on idle `proc` at time `t`. The
  /// replica pays the full reactive path — decision + dispatch overheads
  /// and its input transfers from scratch (nothing was prefetched for it) —
  /// and draws its own noise substream (replica id 1).
  void launch_replica(dag::NodeId node, ProcId proc, TimeMs nominal,
                      TimeMs t) {
    NodeState& ns = node_state_[node];
    const SystemConfig& cfg = system_.config();
    const TimeMs dispatched =
        t + cfg.decision_overhead_ms + cfg.dispatch_overhead_ms;
    ns.replica_proc = proc;
    ns.replica_transfer_ms = input_transfer_ms(node, proc);
    ns.replica_exec_start = dispatched + ns.replica_transfer_ms;
    ns.replica_mult =
        noise_.enabled() ? noise_multiplier(noise_, kNoiseInstance, node, 1)
                         : 1.0;
    ns.replica_exec_ms = nominal * ns.replica_mult;
    ns.replica_finish = ns.replica_exec_start + ns.replica_exec_ms;
    ns.replica_outstanding = true;
    ns.hedge_idx = hedges_.size();
    HedgeRecord record;
    record.node = node;
    record.primary_proc = ns.record.proc;
    record.replica_proc = proc;
    record.launched_ms = t;
    hedges_.push_back(record);
    proc_state_[proc].running = node;
    idle_dirty_ = true;
    events_.push(Completion{ns.replica_finish, node, EventKind::kReplica});
    if (sink_) {
      obs::InstantEvent ev;
      ev.kind = obs::InstantKind::kHedgeLaunch;
      ev.node = node;
      ev.proc = proc;
      ev.time = t;
      sink_->instant(ev);
    }
  }

  /// Primary completion event. Skipped when stale (the replica already won
  /// and retired the kernel); otherwise the primary wins any outstanding
  /// race — the replica is cancelled at this instant and its processor
  /// freed.
  void complete_primary(dag::NodeId node) {
    NodeState& ns = node_state_[node];
    if (ns.done) return;
    if (ns.replica_outstanding) {
      ns.replica_outstanding = false;
      proc_state_[ns.replica_proc].running.reset();
      idle_dirty_ = true;
      HedgeRecord& h = hedges_[ns.hedge_idx];
      h.replica_won = false;
      h.winner_finish_ms = ns.record.finish_time;
      h.cancelled_ms = ns.record.finish_time;
      h.loser_start_ms = ns.replica_exec_start - ns.replica_transfer_ms;
      if (sink_)
        emit_loser_span(node, ns.replica_proc, h.loser_start_ms,
                        ns.replica_exec_start, h.cancelled_ms,
                        ns.replica_mult, obs::SpanRole::kHedgeReplica);
    }
    complete_kernel(node);
  }

  /// Replica completion event. Skipped when stale (the primary won first);
  /// otherwise the replica wins: the straggling primary is cancelled now,
  /// its processor freed, and the schedule record rewritten to describe
  /// the winning attempt (the loser survives in the HedgeRecord).
  void complete_replica(dag::NodeId node) {
    NodeState& ns = node_state_[node];
    if (ns.done || !ns.replica_outstanding) return;
    ns.replica_outstanding = false;
    proc_state_[ns.record.proc].running.reset();
    idle_dirty_ = true;
    HedgeRecord& h = hedges_[ns.hedge_idx];
    h.replica_won = true;
    h.winner_finish_ms = ns.replica_finish;
    h.cancelled_ms = ns.replica_finish;
    h.loser_start_ms = ns.record.occupied_from();
    // The record is about to be rewritten to the winning replica; the
    // losing primary's facts only exist here.
    if (sink_)
      emit_loser_span(node, ns.record.proc, h.loser_start_ms,
                      ns.record.exec_start, h.cancelled_ms,
                      ns.record.noise_mult, obs::SpanRole::kHedgePrimary);
    ns.record.proc = ns.replica_proc;
    ns.record.assign_time =
        h.launched_ms + system_.config().decision_overhead_ms;
    ns.record.exec_start = ns.replica_exec_start;
    ns.record.exec_ms = ns.replica_exec_ms;
    ns.record.transfer_ms = ns.replica_transfer_ms;
    ns.record.finish_time = ns.replica_finish;
    ns.record.noise_mult = ns.replica_mult;
    complete_kernel(node);
  }

  /// Advances the clock to the earliest pending event (completion,
  /// replica race, hedge check, or release), processes everything sharing
  /// that timestamp, then updates queue heads.
  void advance_to_next_event() {
    obs::ScopedTimer timer(profile_, obs::Timer::kEventLoopAdvance);
    TimeMs t = std::numeric_limits<TimeMs>::infinity();
    if (!events_.empty()) t = std::min(t, events_.top().time);
    if (!releases_.empty()) t = std::min(t, releases_.top().time);
    if (tm_) t = std::min(t, tm_->next_event_ms());
    now_ = t;
    while (!events_.empty() && events_.top().time == t) {
      const Completion ev = events_.top();
      events_.pop();
      if (profile_) {
        profile_->add(obs::Counter::kEventsProcessed);
        if (ev.kind == EventKind::kHedgeCheck)
          profile_->add(obs::Counter::kHedgeChecks);
      }
      switch (ev.kind) {
        case EventKind::kCompletion:
          complete_primary(ev.node);
          break;
        case EventKind::kReplica:
          complete_replica(ev.node);
          break;
        case EventKind::kHedgeCheck:
          process_hedge_check(ev.node, t);
          break;
      }
    }
    if (tm_) {
      tm_->advance_to(t, deliveries_);  // reused buffer, no per-event alloc
      for (const net::Delivery& delivery : deliveries_) on_delivery(delivery);
    }
    while (!releases_.empty() && releases_.top().time <= t) {
      const dag::NodeId node = releases_.top().node;
      releases_.pop();
      if (node_state_[node].remaining_preds == 0) mark_ready(node);
    }
    drain_queues();
  }

  void complete_kernel(dag::NodeId node) {
    NodeState& ns = node_state_[node];
    ns.done = true;
    ++done_count_;
    if (sink_) emit_kernel_span(ns, node);
    ProcState& ps = proc_state_[ns.record.proc];
    ps.running.reset();
    idle_dirty_ = true;
    ps.exec_history.push_back(ns.record.exec_ms);
    // Feed the hedging threshold: the winner's noise multiplier IS the
    // realized/nominal inflation ratio of this completion.
    if (hedging_.enabled) hedge_window_.add(ns.record.noise_mult);
    for (const dag::NodeId succ : dag_.successors(node)) {
      NodeState& ss = node_state_[succ];
      if (--ss.remaining_preds == 0) {
        if (dag_.node(succ).release_ms <= now_) {
          mark_ready(succ);
        } else {
          releases_.push(Completion{dag_.node(succ).release_ms, succ});
        }
      }
    }
  }

  /// Noise instance of the closed engine: one DAG per run. A
  /// single-instance stream run (arrival index 0) draws the same
  /// multipliers from the same spec.
  static constexpr std::uint64_t kNoiseInstance = 0;

  const dag::Dag& dag_;
  const System& system_;
  const CostModel& cost_;
  Policy& policy_;

  /// Stochastic extensions (both disabled by default — see EngineOptions).
  const NoiseSpec noise_;
  const HedgeSpec hedging_;
  /// Rolling realized/nominal inflation ratios of completed kernels — the
  /// bounded-memory sample the hedging threshold quantile is drawn from.
  util::RollingQuantile hedge_window_;
  std::vector<HedgeRecord> hedges_;  ///< launch order

  /// Contended-topology comm phase (tm_ engaged only when contended_).
  const net::Topology& topology_;
  const bool contended_;

  /// Observability sinks (null = disabled; see EngineOptions).
  obs::TraceSink* const sink_;
  obs::Profile* const profile_;
  std::optional<net::TransferManager> tm_;
  /// Message log in creation order; index == TransferManager tag.
  std::vector<TransferRecord> transfer_records_;
  std::vector<net::Delivery> deliveries_;  ///< advance_to out-buffer, reused

  /// Lazily-filled per-node minimum-execution cache (NaN = unfilled).
  mutable std::vector<TimeMs> min_exec_cache_;
  mutable std::vector<ProcId> min_proc_cache_;

  TimeMs now_ = 0.0;
  std::size_t done_count_ = 0;
  std::vector<NodeState> node_state_;
  std::vector<ProcState> proc_state_;

  /// Ready kernels in arrival order; committed kernels leave in place.
  ReadySet ready_;

  /// Cached available set, rebuilt on demand after processor-state changes.
  mutable std::vector<ProcId> idle_cache_;
  mutable bool idle_dirty_ = true;

  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      events_;
  /// Pending release instants of kernels whose dependencies are already
  /// satisfied but whose release time lies in the future.
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      releases_;
};

Engine::Engine(const dag::Dag& dag, const System& system,
               const CostModel& cost)
    : dag_(dag), system_(system), cost_(cost) {}

Engine::Engine(const dag::Dag& dag, const System& system,
               const CostModel& cost, EngineOptions options)
    : dag_(dag), system_(system), cost_(cost), options_(std::move(options)) {}

SimResult Engine::run(Policy& policy) {
  options_.noise.validate();
  options_.hedging.validate();
  if (options_.hedging.enabled && system_.topology().contended())
    throw std::invalid_argument(
        "Engine: straggler hedging requires an uncontended topology (a "
        "replica's input transfers are not modelled as fabric messages)");
  // Densify the cost model once per run unless the caller already did.
  const auto* pre = dynamic_cast<const PrecomputedCostModel*>(&cost_);
  std::optional<PrecomputedCostModel> local;
  if (pre == nullptr) pre = &local.emplace(dag_, system_, cost_);
  // Under a contended topology the policies must price edges against the
  // fabric, not the cost model's uncontended point-to-point links — this
  // is what makes HEFT/PEFT EFT estimates topology-aware.
  std::optional<TopologyCostModel> topo_cost;
  const CostModel* effective = pre;
  if (system_.topology().contended())
    effective = &topo_cost.emplace(*pre, system_);
  // prepare() runs even for an empty DAG so every policy sees the same
  // lifecycle regardless of input.
  policy.prepare(dag_, system_, *effective);
  if (dag_.empty()) return SimResult{};
  Context ctx(dag_, system_, *effective, policy, options_);
  return ctx.simulate();
}

}  // namespace apt::sim
