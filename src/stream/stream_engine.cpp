#include "stream/stream_engine.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "net/transfer_manager.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"
#include "sim/precomputed_cost_model.hpp"
#include "sim/ready_set.hpp"
#include "sim/validate.hpp"
#include "util/contracts.hpp"
#include "util/rolling_quantile.hpp"

namespace apt::stream {

void StreamOptions::validate() const {
  arrivals.validate();
  if (arrivals.kind != ArrivalKind::Trace && max_apps == 0 &&
      !(horizon_ms > 0.0))
    throw std::invalid_argument(
        "StreamOptions: an endless arrival process needs max_apps or "
        "horizon_ms to bound the run");
  if (warmup_ms < 0.0 || horizon_ms < 0.0)
    throw std::invalid_argument(
        "StreamOptions: warmup/horizon must be >= 0");
  if (max_live_apps == 0)
    throw std::invalid_argument("StreamOptions: max_live_apps must be >= 1");
  noise.validate();
  hedging.validate();
}

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

/// Timestamped event keyed by global slot id; min-heap order (earliest
/// first, ties by kind then ascending slot).
///
/// `epoch` snapshots the slot's reuse generation at push time. Hedging
/// leaves dead events in the heap (the cancelled loser's completion, hedge
/// checks for already-finished kernels) that can outlive their instance;
/// once the slot is recycled to a new application such an event must not
/// touch the new tenant, so the pop loop discards any event whose epoch
/// no longer matches the slot's.
struct Event {
  sim::TimeMs time;
  dag::NodeId slot;
  EventKind kind = EventKind::kCompletion;
  std::uint32_t epoch = 0;

  bool operator>(const Event& other) const noexcept {
    if (time != other.time) return time > other.time;
    if (kind != other.kind) return kind > other.kind;
    return slot > other.slot;
  }
};

using EventQueue =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

}  // namespace

/// All mutable state of one stream run; implements the SchedulerContext the
/// policy schedules against. Per-node arrays are indexed by global slot id;
/// a retired instance's slot range returns to the free-range allocator.
class StreamEngine::Context final : public sim::SchedulerContext {
 public:
  Context(const sim::System& system, const sim::CostModel& base_cost,
          const DagSource& source, const StreamOptions& options,
          sim::Policy& policy)
      : system_(system),
        base_cost_(base_cost),
        source_(source),
        options_(options),
        policy_(policy),
        topology_(system.topology()),
        contended_(topology_.contended()),
        proc_count_(system.proc_count()),
        hedge_window_(options.hedging.window),
        sink_(options.sink),
        profile_(options.profile),
        proc_state_(system.proc_count()) {
    if (contended_) {
      tm_.emplace(topology_);
      // Per-link busy/bytes clip to the observation window exactly like
      // processor busy time, so steady-state link utilization is unbiased
      // by warmup traffic.
      tm_->set_window_start(options.warmup_ms);
      tm_->set_profile(profile_);
      topo_cost_.emplace(base_cost_, system_);
    }
    observation_.warmup_ms = options.warmup_ms;
    observation_.busy_in_window_ms.assign(system.proc_count(), 0.0);
    observation_.kernels_in_window.assign(system.proc_count(), 0);
    observation_.queue_depth.set_window_start(options.warmup_ms);
    observation_.live_apps.set_window_start(options.warmup_ms);
    idle_cache_.reserve(system.proc_count());
  }

  StreamOutcome simulate() {
    ArrivalProcess arrivals(options_.arrivals);
    pull_next_arrival(arrivals);
    process_arrivals(arrivals);  // a trace may start at t = 0
    for (;;) {
      {
        obs::ScopedTimer timer(profile_, obs::Timer::kPolicyPass);
        policy_.on_event(*this);
      }
      if (profile_) profile_->add(obs::Counter::kPolicyPasses);
      drain_queues();
      const bool quiescent = events_.empty() && releases_.empty() &&
                             !next_arrival_ && !(tm_ && tm_->busy());
      if (live_count_ == 0 && quiescent) break;
      if (quiescent) {
        throw std::logic_error("StreamEngine: policy '" + policy_.name() +
                               "' stalled: work remains but nothing is "
                               "executing and no arrival is pending");
      }
      advance_to_next_event(arrivals);
    }
    observation_.end_ms = std::max(now_, options_.warmup_ms);
    observation_.queue_depth.finish(observation_.end_ms);
    observation_.live_apps.finish(observation_.end_ms);
    if (tm_) {
      observation_.link_busy_in_window_ms = tm_->link_busy_in_window_ms();
      observation_.link_bytes_in_window = tm_->link_bytes_in_window();
      observation_.link_transfers_in_window = tm_->link_counts_in_window();
      observation_.link_hops_in_window = tm_->link_hops_in_window();
      observation_.link_names.reserve(topology_.link_count());
      for (net::LinkId l = 0; l < topology_.link_count(); ++l)
        observation_.link_names.push_back(topology_.link_name(l));
      observation_.tm_solve_stats = tm_->solve_stats();
    }
    if (profile_) observation_.profile = profile_->snapshot();
    StreamOutcome outcome;
    outcome.metrics = sim::compute_stream_metrics(system_, observation_);
    outcome.schedules = std::move(schedules_);
    return outcome;
  }

  // --- SchedulerContext -----------------------------------------------------

  sim::TimeMs now() const override { return now_; }

  const dag::Dag& dag() const override {
    throw std::logic_error(
        "StreamEngine: SchedulerContext::dag() is unavailable in stream "
        "contexts (the ready set spans many DAG instances)");
  }

  const sim::System& system() const override { return system_; }
  const sim::CostModel& cost_model() const override {
    // Contended runs price transfers against the fabric, not the base
    // model's uncontended point-to-point links.
    return contended_ ? static_cast<const sim::CostModel&>(*topo_cost_)
                      : base_cost_;
  }

  const std::vector<dag::NodeId>& ready() const override {
    return ready_.nodes();
  }

  bool is_idle(sim::ProcId proc) const override {
    const ProcState& ps = proc_state_.at(proc);
    return !ps.running.has_value() && ps.queue.empty();
  }

  const std::vector<sim::ProcId>& idle_processors() const override {
    if (idle_dirty_) {
      idle_cache_.clear();
      for (sim::ProcId p = 0; p < proc_state_.size(); ++p) {
        if (is_idle(p)) idle_cache_.push_back(p);
      }
      idle_dirty_ = false;
    }
    return idle_cache_;
  }

  sim::TimeMs busy_until(sim::ProcId proc) const override {
    const ProcState& ps = proc_state_.at(proc);
    if (!ps.running.has_value() && ps.queue.empty()) return now_;
    // A running kernel still stalled on contended input data has no finish
    // time yet; estimate with its (known) execution time from now.
    sim::TimeMs t = now_;
    if (ps.running) {
      const NodeState& rs = node_state_[*ps.running];
      t = rs.exec_started ? rs.record.finish_time : now_ + rs.record.exec_ms;
    }
    for (const QueuedKernel& q : ps.queue) t += q.exec_ms;
    return t;
  }

  std::size_t queue_length(sim::ProcId proc) const override {
    return proc_state_.at(proc).queue.size();
  }

  sim::TimeMs queued_work_ms(sim::ProcId proc) const override {
    const ProcState& ps = proc_state_.at(proc);
    sim::TimeMs work = 0.0;
    if (ps.running) {
      const NodeState& rs = node_state_[*ps.running];
      work += rs.exec_started ? std::max(0.0, rs.record.finish_time - now_)
                              : rs.record.exec_ms;
    }
    for (const QueuedKernel& q : ps.queue) work += q.exec_ms;
    return work;
  }

  sim::TimeMs recent_avg_exec_ms(sim::ProcId proc,
                                 std::size_t k) const override {
    const ProcState& ps = proc_state_.at(proc);
    if (ps.exec_history.empty() || k == 0) return 0.0;
    const std::size_t take = std::min(k, ps.exec_history.size());
    double sum = 0.0;
    for (std::size_t i = ps.exec_history.size() - take;
         i < ps.exec_history.size(); ++i)
      sum += ps.exec_history[i];
    return sum / static_cast<double>(take);
  }

  // The hottest queries of the whole engine: every MET-family policy pass
  // asks these for every ready kernel. They read the per-slot SoA slabs
  // admit() baked from the instance's shared ShapeEntry — one load instead
  // of the slot -> app -> cost-model -> dag-check virtual chain.
  sim::TimeMs exec_time_ms(dag::NodeId slot,
                           sim::ProcId proc) const override {
    return exec_row_[slot][proc];
  }

  sim::TimeMs min_exec_time_ms(dag::NodeId slot) const override {
    return min_exec_slab_[slot];
  }

  sim::ProcId min_exec_proc(dag::NodeId slot) const override {
    return min_proc_slab_[slot];
  }

  sim::TimeMs input_transfer_ms(dag::NodeId slot,
                                sim::ProcId proc) const override {
    const App& app = app_of(slot);
    const ShapeEntry& shape = *app.shape;
    const dag::NodeId local = slot - app.base;
    sim::TimeMs worst = 0.0;
    if (contended_) {
      for (const dag::NodeId pred : shape.dag.predecessors(local)) {
        const sim::ScheduledKernel& rec = node_state_[app.base + pred].record;
        // Internal invariant (not policy-misuse validation): ready slots
        // only surface once every predecessor was scheduled.
        APT_ASSERT(rec.proc != sim::kInvalidProc,
                   "predecessor %u of slot %u not yet scheduled", pred, slot);
        // Comm-adjusted estimate from the topology (uncontended share).
        worst = std::max(worst, topology_.transfer_time_ms(
                                    edge_bytes(app, pred), rec.proc, proc));
      }
      return worst;
    }
    // Ideal topology: the shape's predecessor CSR points straight at the
    // cost model's transfer rows (same doubles, no successor scan).
    for (std::size_t i = shape.pred_offset[local];
         i < shape.pred_offset[local + 1]; ++i) {
      const ShapeEntry::PredEdge& e = shape.pred_edges[i];
      const sim::ScheduledKernel& rec = node_state_[app.base + e.pred].record;
      APT_ASSERT(rec.proc != sim::kInvalidProc,
                 "predecessor %u of slot %u not yet scheduled", e.pred, slot);
      worst = std::max(worst, e.row[rec.proc * proc_count_ + proc]);
    }
    return worst;
  }

  sim::TransferEstimate transfer_estimate(dag::NodeId slot,
                                          sim::ProcId proc) const override {
    sim::TransferEstimate est;
    est.noise = options_.noise;
    if (!contended_) {
      // Ideal topology: only the unloaded stall is non-trivial, and the
      // ideal fast path above is the bit-identical source for it.
      est.stall_ms = input_transfer_ms(slot, proc);
      return est;
    }
    const App& app = app_of(slot);
    const ShapeEntry& shape = *app.shape;
    const dag::NodeId local = slot - app.base;
    sim::ProcId worst_from = proc;  // local: contributes no link
    for (const dag::NodeId pred : shape.dag.predecessors(local)) {
      const sim::ScheduledKernel& rec = node_state_[app.base + pred].record;
      APT_ASSERT(rec.proc != sim::kInvalidProc,
                 "predecessor %u of slot %u not yet scheduled", pred, slot);
      // Same call, same order, same std::max as input_transfer_ms above —
      // stall_ms stays bit-identical to the legacy scalar.
      const sim::TimeMs edge =
          topology_.transfer_time_ms(edge_bytes(app, pred), rec.proc, proc);
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
        const sim::TimeMs drain = tm_->link_drain_ms(l);
        if (drain > est.link_queueing_ms) {
          est.link_queueing_ms = drain;
          est.bottleneck_link = l;
        }
      }
    }
    // Idle fabric: pin the estimate to the unloaded bottleneck of the
    // worst predecessor's route, kNoLink when every input is local.
    if (est.bottleneck_link == net::kNoLink && worst_from != proc)
      est.bottleneck_link = topology_.bottleneck_link(worst_from, proc);
    return est;
  }

  const sim::NoiseSpec& noise() const override { return options_.noise; }

  void assign(dag::NodeId slot, sim::ProcId proc, bool alternative) override {
    if (!is_idle(proc))
      throw std::logic_error("StreamEngine::assign: processor " +
                             system_.processor(proc).name + " is not idle");
    take_from_ready(slot);
    note_decision(slot, proc, "assign");
    start_kernel(slot, proc, alternative);
  }

  void enqueue(dag::NodeId slot, sim::ProcId proc, bool alternative) override {
    take_from_ready(slot);
    note_decision(slot, proc, "enqueue");
    NodeState& ns = node_state_[slot];
    ns.record.assign_time = now_ + system_.config().decision_overhead_ms;
    ns.record.alternative = alternative;
    ns.enqueued_at = now_;
    proc_state_.at(proc).queue.push_back({slot, exec_time_ms(slot, proc)});
    idle_dirty_ = true;
    // The destination is fixed, so contended input data starts moving now
    // and may prefetch while the kernel waits in the queue.
    if (contended_)
      begin_comm(slot, proc,
                 now_ + system_.config().decision_overhead_ms +
                     system_.config().dispatch_overhead_ms);
  }

 private:
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoApp = static_cast<std::uint32_t>(-1);
  /// Bounded per-processor execution history (memory over long runs).
  static constexpr std::size_t kHistoryCap = 1024;

  struct NodeState {
    sim::ScheduledKernel record;  ///< record.node holds the LOCAL node id
    bool ready = false;
    bool assigned = false;
    bool done = false;
    std::uint32_t app = kNoApp;  ///< owning slot in apps_
    std::uint32_t epoch = 0;     ///< slot reuse generation (see Event)
    std::size_t remaining_preds = 0;
    sim::TimeMs enqueued_at = std::numeric_limits<sim::TimeMs>::quiet_NaN();

    // --- straggler hedging (unused when hedging is disabled) ---
    sim::TimeMs nominal_exec_ms = 0.0;  ///< pre-noise exec on record.proc
    bool hedged = false;           ///< a hedge decision was made (at most 1)
    bool replica_outstanding = false;  ///< replica launched, race unresolved
    std::size_t hedge_idx = kNoPos;    ///< index into the app's hedge log
    sim::ProcId replica_proc = sim::kInvalidProc;
    sim::TimeMs replica_exec_start = 0.0;
    sim::TimeMs replica_exec_ms = 0.0;
    sim::TimeMs replica_transfer_ms = 0.0;
    sim::TimeMs replica_finish = 0.0;
    double replica_mult = 1.0;

    // --- contended-topology comm phase (unused under ideal) ---
    bool exec_started = false;     ///< computation has begun
    bool holds_proc = false;       ///< occupies its processor, maybe stalled
    std::size_t pending_msgs = 0;  ///< input messages still in flight
    sim::TimeMs occupied_at = 0.0;
    sim::TimeMs data_ready_at = 0.0;
  };

  struct QueuedKernel {
    dag::NodeId slot;
    sim::TimeMs exec_ms;
  };

  struct ProcState {
    std::optional<dag::NodeId> running;
    std::deque<QueuedKernel> queue;
    std::deque<sim::TimeMs> exec_history;  ///< newest at the back, capped
  };

  /// Immutable per-shape data shared by every live instance whose DAG is
  /// structurally identical: the canonical graph, its densified cost
  /// tables, the makespan lower bound, per-node minimum-execution tables,
  /// and a predecessor CSR whose entries point straight at the cost
  /// model's transfer rows. Heap-pinned behind a shared_ptr — the cost
  /// model holds a pointer to `dag`, so entries never move; they die when
  /// the last referencing instance retires and the pool has let go.
  struct ShapeEntry {
    dag::Dag dag;
    sim::PrecomputedCostModel cost;  ///< references `dag` above
    sim::TimeMs lower_bound_ms = 0.0;
    std::vector<sim::TimeMs> min_exec;  ///< [local] min over processors
    std::vector<sim::ProcId> min_proc;  ///< [local] lowest argmin
    struct PredEdge {
      dag::NodeId pred;        ///< local predecessor id
      const sim::TimeMs* row;  ///< that edge's P×P transfer table
    };
    std::vector<std::size_t> pred_offset;  ///< [local + 1], CSR bounds
    std::vector<PredEdge> pred_edges;      ///< in predecessors() order

    ShapeEntry(dag::Dag d, const sim::System& system,
               const sim::CostModel& base)
        : dag(std::move(d)), cost(dag, system, base) {}
  };

  /// Returns the pooled entry for this exact graph, building (and pooling)
  /// it on first sight. The structure hash is the lookup key; an exact
  /// dag::identical() check confirms every hit, so a collision costs a
  /// rebuild, never a wrong table. The pool is bounded: at the cap it is
  /// generationally cleared — live instances keep their entries alive
  /// through their own shared_ptrs, the pool merely stops deduplicating
  /// shapes it has already seen.
  std::shared_ptr<const ShapeEntry> acquire_shape(dag::Dag&& dag) {
    const std::uint64_t hash = dag::structure_hash(dag);
    if (auto it = shape_pool_.find(hash); it != shape_pool_.end()) {
      for (const auto& entry : it->second) {
        if (dag::identical(entry->dag, dag)) return entry;
      }
    }
    if (shape_pool_size_ >= kShapePoolCap) {
      shape_pool_.clear();
      shape_pool_size_ = 0;
    }
    auto entry =
        std::make_shared<ShapeEntry>(std::move(dag), system_, base_cost_);
    entry->lower_bound_ms =
        sim::makespan_lower_bound_ms(entry->dag, system_, entry->cost);
    const std::size_t n = entry->dag.node_count();
    entry->min_exec.resize(n);
    entry->min_proc.resize(n);
    for (dag::NodeId local = 0; local < n; ++local) {
      const sim::TimeMs* row = entry->cost.exec_row(local);
      sim::TimeMs best = row[0];
      sim::ProcId best_proc = 0;
      for (sim::ProcId p = 1; p < proc_count_; ++p) {
        if (row[p] < best) {
          best = row[p];
          best_proc = p;
        }
      }
      entry->min_exec[local] = best;
      entry->min_proc[local] = best_proc;
    }
    entry->pred_offset.assign(n + 1, 0);
    entry->pred_edges.reserve(entry->dag.edge_count());
    for (dag::NodeId local = 0; local < n; ++local) {
      for (const dag::NodeId pred : entry->dag.predecessors(local)) {
        const auto& succs = entry->dag.successors(pred);
        std::size_t k = 0;
        while (succs[k] != local) ++k;
        entry->pred_edges.push_back(
            ShapeEntry::PredEdge{pred, entry->cost.transfer_row(pred, k)});
      }
      entry->pred_offset[local + 1] = entry->pred_edges.size();
    }
    shape_pool_[hash].push_back(entry);
    ++shape_pool_size_;
    return entry;
  }

  /// One live application instance — a plain value in the reusable app
  /// table; everything shape-dependent lives behind `shape`.
  struct App {
    std::size_t index = 0;  ///< global arrival index
    sim::TimeMs arrival_ms = 0.0;
    std::shared_ptr<const ShapeEntry> shape;
    dag::NodeId base = dag::kInvalidNode;  ///< first global slot
    std::size_t remaining = 0;             ///< kernels not yet completed
    std::size_t remaining_total = 0;       ///< kernel count
    /// Completed/in-flight link messages, local node ids, absolute times.
    /// Only populated when StreamOptions::record_schedules (memory stays
    /// bounded by the live backlog otherwise).
    std::vector<sim::TransferRecord> transfers;
    /// Hedging episodes of this instance (local node ids), launch order.
    /// Always populated while live — the aggregate counters fold out of
    /// it — but only retained into the outcome under record_schedules.
    std::vector<sim::HedgeRecord> hedges;
  };

  const App& app_of(dag::NodeId slot) const {
    const std::uint32_t a = node_state_.at(slot).app;
    if (a == kNoApp)
      throw std::logic_error("StreamEngine: slot has no live application");
    return apps_[a];
  }

  // --- slot-range allocator -------------------------------------------------

  /// First-fit over the retired ranges (lowest base wins — deterministic),
  /// growing the arrays when nothing fits. Ranges merge on release, so a
  /// steady-state stream of same-sized instances recycles one range
  /// forever and memory stays proportional to the live backlog.
  dag::NodeId allocate_slots(std::size_t n) {
    for (auto it = free_ranges_.begin(); it != free_ranges_.end(); ++it) {
      if (it->second < n) continue;
      const dag::NodeId base = it->first;
      const std::size_t len = it->second;
      free_ranges_.erase(it);
      if (len > n)
        free_ranges_.emplace(base + static_cast<dag::NodeId>(n), len - n);
      return base;
    }
    const dag::NodeId base = static_cast<dag::NodeId>(node_state_.size());
    node_state_.resize(node_state_.size() + n);
    ready_.resize(node_state_.size());
    exec_row_.resize(node_state_.size(), nullptr);
    min_exec_slab_.resize(node_state_.size(), 0.0);
    min_proc_slab_.resize(node_state_.size(), 0);
    return base;
  }

  void release_slots(dag::NodeId base, std::size_t n) {
    auto [it, inserted] = free_ranges_.emplace(base, n);
    (void)inserted;
    // Merge with the successor range, then with the predecessor.
    auto next = std::next(it);
    if (next != free_ranges_.end() &&
        it->first + static_cast<dag::NodeId>(it->second) == next->first) {
      it->second += next->second;
      free_ranges_.erase(next);
    }
    if (it != free_ranges_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + static_cast<dag::NodeId>(prev->second) == it->first) {
        prev->second += it->second;
        free_ranges_.erase(it);
      }
    }
  }

  // --- ready-set bookkeeping (sim::Engine's in-place sim::ReadySet) --------

  void mark_ready(dag::NodeId slot) {
    if (profile_) profile_->add(obs::Counter::kReadyMarked);
    NodeState& ns = node_state_[slot];
    ns.ready = true;
    ns.record.ready_time = now_;
    ready_.push_back(slot);
    observation_.queue_depth.observe(now_, ready_.size());
  }

  void take_from_ready(dag::NodeId slot) {
    NodeState& ns = node_state_.at(slot);
    if (!ns.ready || ns.assigned)
      throw std::logic_error("StreamEngine: slot " + std::to_string(slot) +
                             " is not in the ready set");
    ns.assigned = true;
    ready_.erase(slot);
    observation_.queue_depth.observe(now_, ready_.size());
  }

  // --- observability (src/obs) ----------------------------------------------
  // Every site is a null-guarded read of already-committed facts; with no
  // sink/profile attached each collapses to one branch.

  void note_decision(dag::NodeId slot, sim::ProcId proc, const char* detail) {
    if (profile_) profile_->add(obs::Counter::kPolicyDecisions);
    if (!sink_) return;
    const App& app = app_of(slot);
    obs::InstantEvent ev;
    ev.kind = obs::InstantKind::kDecision;
    ev.instance = app.index;
    ev.node = slot - app.base;
    ev.proc = proc;
    ev.time = now_;
    ev.detail = detail;
    sink_->instant(ev);
  }

  /// App-level lifecycle marker (sink_ checked by the caller).
  void emit_lifecycle(obs::InstantKind kind, std::uint64_t instance,
                      sim::TimeMs time) {
    obs::InstantEvent ev;
    ev.kind = kind;
    ev.instance = instance;
    ev.time = time;
    sink_->instant(ev);
  }

  /// Winner span of a retiring kernel (sink_ checked by the caller).
  void emit_kernel_span(const NodeState& ns, dag::NodeId slot) {
    const App& app = apps_[ns.app];
    const dag::NodeId local = slot - app.base;
    obs::KernelSpan span;
    span.instance = app.index;
    span.node = local;
    span.kernel = app.shape->dag.node(local).kernel.c_str();
    span.proc = ns.record.proc;
    span.occupied_from = ns.record.occupied_from();
    span.exec_start = ns.record.exec_start;
    span.finish = ns.record.finish_time;
    span.noise_mult = ns.record.noise_mult;
    span.alternative = ns.record.alternative;
    if (ns.hedge_idx != kNoPos)
      span.role = app.hedges[ns.hedge_idx].replica_won
                      ? obs::SpanRole::kHedgeReplica
                      : obs::SpanRole::kHedgePrimary;
    sink_->kernel_span(span);
  }

  /// Cancelled losing attempt of a hedge race (sink_ checked by caller).
  void emit_loser_span(dag::NodeId slot, sim::ProcId proc,
                       sim::TimeMs occupied_from, sim::TimeMs exec_start,
                       sim::TimeMs cancelled, double mult,
                       obs::SpanRole role) {
    const App& app = apps_[node_state_[slot].app];
    const dag::NodeId local = slot - app.base;
    obs::KernelSpan span;
    span.instance = app.index;
    span.node = local;
    span.kernel = app.shape->dag.node(local).kernel.c_str();
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
  void emit_transfer_span(const sim::TransferRecord& record,
                          std::uint64_t instance) {
    obs::TransferSpan span;
    span.instance = instance;
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

  // --- kernel lifecycle (mirrors sim::Engine) -------------------------------

  /// Payload of the edge out of `pred` (a local node id) in `app`.
  double edge_bytes(const App& app, dag::NodeId pred) const {
    return sim::edge_payload_bytes(app.shape->dag, pred,
                                   system_.config().bytes_per_element);
  }

  /// Contended mode: creates one link message per non-local input edge of
  /// `slot`, entering the fabric at the dispatch instant. Called exactly
  /// once per kernel, when the policy commits it.
  void begin_comm(dag::NodeId slot, sim::ProcId proc,
                  sim::TimeMs dispatched) {
    NodeState& ns = node_state_[slot];
    if (ns.app == kNoApp)
      throw std::logic_error("StreamEngine: slot has no live application");
    App& app = apps_[ns.app];
    const dag::NodeId local = slot - app.base;
    ns.data_ready_at = dispatched;
    for (const dag::NodeId pred : app.shape->dag.predecessors(local)) {
      const sim::ScheduledKernel& rec = node_state_[app.base + pred].record;
      const net::Topology::Route route = topology_.route(rec.proc, proc);
      if (route.empty()) continue;  // same processor, socket, or cell
      const double bytes = edge_bytes(app, pred);
      const std::uint64_t tag = next_transfer_tag_++;
      // A trace sink needs the full message record at delivery time, so
      // tracing also populates the app's transfer log; retire() still
      // clears it when schedules are not recorded, keeping memory bounded
      // by the live backlog.
      if (options_.record_schedules || sink_) {
        sim::TransferRecord record;
        record.src = pred;
        record.dst = local;
        record.from = rec.proc;
        record.to = proc;
        record.path.assign(route.begin(), route.end());
        record.bytes = bytes;
        record.start = dispatched;
        record.drain_start =
            dispatched + topology_.route_latency_ms(rec.proc, proc);
        inflight_[tag] = InFlight{slot, app.transfers.size()};
        app.transfers.push_back(std::move(record));
      } else {
        inflight_[tag] = InFlight{slot, kNoRecord};
      }
      tm_->start(tag, bytes, rec.proc, proc, dispatched);
      ++ns.pending_msgs;
      if (profile_) profile_->add(obs::Counter::kTransfersStarted);
    }
  }

  /// Contended mode: all inputs are in — computation begins at `at`.
  void begin_exec(dag::NodeId slot, sim::TimeMs at) {
    NodeState& ns = node_state_[slot];
    ns.exec_started = true;
    ns.record.exec_start = at;
    ns.record.transfer_ms = at - ns.occupied_at;
    ns.record.finish_time = at + ns.record.exec_ms;
    events_.push(
        Event{ns.record.finish_time, slot, EventKind::kCompletion, ns.epoch});
  }

  void on_delivery(const net::Delivery& delivery) {
    const auto it = inflight_.find(delivery.tag);
    if (it == inflight_.end())
      throw std::logic_error("StreamEngine: delivery for unknown transfer");
    const InFlight flight = it->second;
    inflight_.erase(it);
    NodeState& ns = node_state_[flight.slot];
    if (flight.record != kNoRecord) {
      sim::TransferRecord& record = apps_[ns.app].transfers[flight.record];
      record.finish = now_;
      if (sink_) emit_transfer_span(record, apps_[ns.app].index);
    }
    --ns.pending_msgs;
    ns.data_ready_at = std::max(ns.data_ready_at, now_);
    if (ns.pending_msgs == 0 && ns.holds_proc)
      begin_exec(flight.slot, std::max(ns.occupied_at, ns.data_ready_at));
  }

  /// Stamps the realized execution time of `slot` on its processor: the
  /// nominal (SoA-baked) duration times the per-kernel noise multiplier.
  /// The noise instance is the app's global arrival index and the node id
  /// is local, so the draw matches sim::Engine's for the same DAG and is
  /// independent of slot placement, scheduling order, and --jobs.
  void stamp_exec_time(NodeState& ns, dag::NodeId slot, sim::TimeMs nominal) {
    ns.nominal_exec_ms = nominal;
    if (options_.noise.enabled()) {
      const App& app = app_of(slot);
      ns.record.noise_mult =
          sim::noise_multiplier(options_.noise, app.index, slot - app.base, 0);
    } else {
      ns.record.noise_mult = 1.0;
    }
    ns.record.exec_ms = nominal * ns.record.noise_mult;
  }

  void start_kernel(dag::NodeId slot, sim::ProcId proc, bool alternative) {
    NodeState& ns = node_state_[slot];
    const sim::SystemConfig& cfg = system_.config();
    ns.record.proc = proc;
    ns.record.alternative = alternative;
    ns.record.assign_time = now_ + cfg.decision_overhead_ms;
    const sim::TimeMs dispatched =
        ns.record.assign_time + cfg.dispatch_overhead_ms;
    if (contended_) {
      stamp_exec_time(ns, slot, exec_time_ms(slot, proc));
      ns.occupied_at = dispatched;
      ns.holds_proc = true;
      proc_state_[proc].running = slot;
      idle_dirty_ = true;
      begin_comm(slot, proc, dispatched);
      if (ns.pending_msgs == 0) begin_exec(slot, ns.data_ready_at);
      return;
    }
    ns.record.transfer_ms = transfer_delay(slot, proc, dispatched);
    ns.record.exec_start = dispatched + ns.record.transfer_ms;
    stamp_exec_time(ns, slot, exec_time_ms(slot, proc));
    ns.record.finish_time = ns.record.exec_start + ns.record.exec_ms;
    ns.exec_started = true;
    proc_state_[proc].running = slot;
    idle_dirty_ = true;
    events_.push(
        Event{ns.record.finish_time, slot, EventKind::kCompletion, ns.epoch});
    if (options_.hedging.enabled) schedule_hedge_check(slot);
  }

  /// Pops queue heads onto idle processors. (Profiled as its own phase;
  /// the calls from advance_to_next_event nest inside that timer.)
  void drain_queues() {
    obs::ScopedTimer timer(profile_, obs::Timer::kDrainQueues);
    for (sim::ProcId p = 0; p < proc_state_.size(); ++p) {
      ProcState& ps = proc_state_[p];
      if (ps.running.has_value() || ps.queue.empty()) continue;
      const QueuedKernel next = ps.queue.front();
      ps.queue.pop_front();
      start_queued_kernel(next, p);
    }
  }

  void start_queued_kernel(const QueuedKernel& queued, sim::ProcId proc) {
    NodeState& ns = node_state_[queued.slot];
    const sim::SystemConfig& cfg = system_.config();
    if (contended_) {
      // Messages have been in flight since the enqueue; the processor
      // picks the kernel up now and stalls until the last one lands.
      ns.record.proc = proc;
      stamp_exec_time(ns, queued.slot, queued.exec_ms);
      ns.occupied_at = now_;
      ns.holds_proc = true;
      proc_state_[proc].running = queued.slot;
      idle_dirty_ = true;
      if (ns.pending_msgs == 0)
        begin_exec(queued.slot, std::max(now_, ns.data_ready_at));
      return;
    }
    const sim::TimeMs transfer = input_transfer_ms(queued.slot, proc);
    const sim::TimeMs data_ready = ns.enqueued_at + cfg.decision_overhead_ms +
                                   cfg.dispatch_overhead_ms + transfer;
    // queued.exec_ms stayed nominal for the queue-estimate queries; the
    // noise draw lands only now, on the realized duration.
    ns.record.proc = proc;
    ns.record.exec_start = std::max(now_, data_ready);
    ns.record.transfer_ms = std::max(0.0, data_ready - now_);
    stamp_exec_time(ns, queued.slot, queued.exec_ms);
    ns.record.finish_time = ns.record.exec_start + ns.record.exec_ms;
    ns.exec_started = true;
    proc_state_[proc].running = queued.slot;
    idle_dirty_ = true;
    events_.push(Event{ns.record.finish_time, queued.slot,
                       EventKind::kCompletion, ns.epoch});
    if (options_.hedging.enabled) schedule_hedge_check(queued.slot);
  }

  sim::TimeMs transfer_delay(dag::NodeId slot, sim::ProcId proc,
                             sim::TimeMs from_time) {
    if (policy_.transfer_semantics() == sim::TransferSemantics::AtAssignment)
      return input_transfer_ms(slot, proc);
    const App& app = app_of(slot);
    const dag::Dag& dag = app.shape->dag;
    const dag::NodeId local = slot - app.base;
    sim::TimeMs data_ready = from_time;
    const sim::Processor& to = system_.processor(proc);
    for (const dag::NodeId pred : dag.predecessors(local)) {
      const sim::ScheduledKernel& rec = node_state_[app.base + pred].record;
      const sim::TimeMs arrival =
          rec.finish_time +
          app.shape->cost.transfer_time_ms(dag, pred, local,
                                           system_.processor(rec.proc), to);
      data_ready = std::max(data_ready, arrival);
    }
    return data_ready - from_time;
  }

  // --- straggler hedging ----------------------------------------------------

  /// Elapsed primary runtime that triggers a hedge for a kernel with the
  /// given nominal duration: nominal × (rolling tail inflation, once the
  /// window is trustworthy) × the safety factor. Never below nominal ×
  /// factor, so hedging only ever fires on kernels already running late.
  sim::TimeMs hedge_threshold_ms(sim::TimeMs nominal) const {
    double inflation = 1.0;
    if (hedge_window_.count() >= options_.hedging.min_samples)
      inflation =
          std::max(1.0, hedge_window_.quantile(options_.hedging.quantile));
    return nominal * inflation * options_.hedging.threshold_factor;
  }

  void schedule_hedge_check(dag::NodeId slot) {
    const NodeState& ns = node_state_[slot];
    events_.push(
        Event{ns.record.exec_start + hedge_threshold_ms(ns.nominal_exec_ms),
              slot, EventKind::kHedgeCheck, ns.epoch});
  }

  /// A hedge check came due at `t`. The threshold is re-derived from the
  /// CURRENT rolling window (it may have grown since the check was armed);
  /// if the kernel is not yet overdue under the fresh threshold the check
  /// re-arms at the new instant, otherwise a replica launches — once per
  /// kernel, and only if some processor is idle right now (hedging never
  /// preempts or queues; a saturated platform has no spare capacity worth
  /// burning on duplicates).
  void process_hedge_check(dag::NodeId slot, sim::TimeMs t) {
    NodeState& ns = node_state_[slot];
    if (ns.done || ns.hedged || !ns.exec_started) return;
    const sim::TimeMs due =
        ns.record.exec_start + hedge_threshold_ms(ns.nominal_exec_ms);
    if (due > t) {
      events_.push(Event{due, slot, EventKind::kHedgeCheck, ns.epoch});
      return;
    }
    ns.hedged = true;  // one decision per kernel, launched or dropped
    const std::vector<sim::ProcId>& idle = idle_processors();
    if (idle.empty()) return;
    // Fastest idle destination by NOMINAL time; idle list ascends, so ties
    // break to the lowest processor id.
    sim::ProcId best = idle.front();
    sim::TimeMs best_ms = exec_time_ms(slot, best);
    for (std::size_t i = 1; i < idle.size(); ++i) {
      const sim::TimeMs ms = exec_time_ms(slot, idle[i]);
      if (ms < best_ms) {
        best = idle[i];
        best_ms = ms;
      }
    }
    launch_replica(slot, best, best_ms, t);
  }

  /// Launches the hedged replica of `slot` on idle `proc` at time `t`. The
  /// replica pays the full reactive path — decision + dispatch overheads
  /// and its input transfers from scratch — and draws its own noise
  /// substream (replica id 1).
  void launch_replica(dag::NodeId slot, sim::ProcId proc, sim::TimeMs nominal,
                      sim::TimeMs t) {
    NodeState& ns = node_state_[slot];
    App& app = apps_[ns.app];
    const sim::SystemConfig& cfg = system_.config();
    const sim::TimeMs dispatched =
        t + cfg.decision_overhead_ms + cfg.dispatch_overhead_ms;
    ns.replica_proc = proc;
    ns.replica_transfer_ms = input_transfer_ms(slot, proc);
    ns.replica_exec_start = dispatched + ns.replica_transfer_ms;
    ns.replica_mult = options_.noise.enabled()
                          ? sim::noise_multiplier(options_.noise, app.index,
                                                  slot - app.base, 1)
                          : 1.0;
    ns.replica_exec_ms = nominal * ns.replica_mult;
    ns.replica_finish = ns.replica_exec_start + ns.replica_exec_ms;
    ns.replica_outstanding = true;
    ns.hedge_idx = app.hedges.size();
    sim::HedgeRecord record;
    record.node = slot - app.base;
    record.primary_proc = ns.record.proc;
    record.replica_proc = proc;
    record.launched_ms = t;
    app.hedges.push_back(record);
    ++observation_.hedges_launched;
    proc_state_[proc].running = slot;
    idle_dirty_ = true;
    events_.push(
        Event{ns.replica_finish, slot, EventKind::kReplica, ns.epoch});
    if (sink_) {
      obs::InstantEvent ev;
      ev.kind = obs::InstantKind::kHedgeLaunch;
      ev.instance = app.index;
      ev.node = slot - app.base;
      ev.proc = proc;
      ev.time = t;
      sink_->instant(ev);
    }
  }

  /// Folds a resolved race's losing attempt into the window-clipped
  /// aggregates: its compute span counts as processor busy time (the
  /// processor really was occupied) and its whole occupied span as hedge
  /// waste.
  void account_loser(sim::ProcId proc, sim::TimeMs occupied_from,
                     sim::TimeMs compute_from, sim::TimeMs cancelled) {
    const sim::TimeMs busy_from =
        std::max(compute_from, options_.warmup_ms);
    if (cancelled > busy_from)
      observation_.busy_in_window_ms[proc] += cancelled - busy_from;
    const sim::TimeMs waste_from =
        std::max(occupied_from, options_.warmup_ms);
    if (cancelled > waste_from)
      observation_.hedge_wasted_in_window_ms += cancelled - waste_from;
  }

  /// Primary completion event. Skipped when stale (the replica already won
  /// and retired the kernel); otherwise the primary wins any outstanding
  /// race — the replica is cancelled at this instant and its processor
  /// freed.
  void complete_primary(dag::NodeId slot) {
    NodeState& ns = node_state_[slot];
    if (ns.done) return;
    if (ns.replica_outstanding) {
      ns.replica_outstanding = false;
      proc_state_[ns.replica_proc].running.reset();
      idle_dirty_ = true;
      sim::HedgeRecord& h = apps_[ns.app].hedges[ns.hedge_idx];
      h.replica_won = false;
      h.winner_finish_ms = ns.record.finish_time;
      h.cancelled_ms = ns.record.finish_time;
      h.loser_start_ms = ns.replica_exec_start - ns.replica_transfer_ms;
      account_loser(ns.replica_proc, h.loser_start_ms, ns.replica_exec_start,
                    h.cancelled_ms);
      if (sink_)
        emit_loser_span(slot, ns.replica_proc, h.loser_start_ms,
                        ns.replica_exec_start, h.cancelled_ms,
                        ns.replica_mult, obs::SpanRole::kHedgeReplica);
    }
    complete_kernel(slot);
  }

  /// Replica completion event. Skipped when stale (the primary won first);
  /// otherwise the replica wins: the straggling primary is cancelled now,
  /// its processor freed, and the schedule record rewritten to describe
  /// the winning attempt (the loser survives in the HedgeRecord).
  void complete_replica(dag::NodeId slot) {
    NodeState& ns = node_state_[slot];
    if (ns.done || !ns.replica_outstanding) return;
    ns.replica_outstanding = false;
    proc_state_[ns.record.proc].running.reset();
    idle_dirty_ = true;
    sim::HedgeRecord& h = apps_[ns.app].hedges[ns.hedge_idx];
    h.replica_won = true;
    h.winner_finish_ms = ns.replica_finish;
    h.cancelled_ms = ns.replica_finish;
    h.loser_start_ms = ns.record.occupied_from();
    ++observation_.hedges_replica_won;
    account_loser(ns.record.proc, h.loser_start_ms, ns.record.exec_start,
                  h.cancelled_ms);
    // The record is about to be rewritten to the winning replica; the
    // losing primary's facts only exist here.
    if (sink_)
      emit_loser_span(slot, ns.record.proc, h.loser_start_ms,
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
    complete_kernel(slot);
  }

  // --- event loop -----------------------------------------------------------

  void advance_to_next_event(ArrivalProcess& arrivals) {
    obs::ScopedTimer timer(profile_, obs::Timer::kEventLoopAdvance);
    sim::TimeMs t = std::numeric_limits<sim::TimeMs>::infinity();
    if (!events_.empty()) t = std::min(t, events_.top().time);
    if (!releases_.empty()) t = std::min(t, releases_.top().time);
    if (next_arrival_) t = std::min(t, *next_arrival_);
    if (tm_) t = std::min(t, tm_->next_event_ms());
    now_ = t;
    while (!events_.empty() && events_.top().time == t) {
      const Event ev = events_.top();
      events_.pop();
      if (profile_) {
        profile_->add(obs::Counter::kEventsProcessed);
        if (ev.kind == EventKind::kHedgeCheck)
          profile_->add(obs::Counter::kHedgeChecks);
      }
      // A dead event whose slot was recycled must not touch the new tenant.
      if (node_state_[ev.slot].epoch != ev.epoch) continue;
      switch (ev.kind) {
        case EventKind::kCompletion:
          complete_primary(ev.slot);
          break;
        case EventKind::kReplica:
          complete_replica(ev.slot);
          break;
        case EventKind::kHedgeCheck:
          process_hedge_check(ev.slot, t);
          break;
      }
    }
    if (tm_) {
      tm_->advance_to(t, deliveries_);  // reused buffer, no per-event alloc
      for (const net::Delivery& delivery : deliveries_) on_delivery(delivery);
    }
    while (!releases_.empty() && releases_.top().time <= t) {
      const dag::NodeId slot = releases_.top().slot;
      releases_.pop();
      if (node_state_[slot].remaining_preds == 0) mark_ready(slot);
    }
    process_arrivals(arrivals);
    drain_queues();
  }

  void complete_kernel(dag::NodeId slot) {
    NodeState& ns = node_state_[slot];
    ns.done = true;
    if (sink_) emit_kernel_span(ns, slot);
    const std::uint32_t app_slot = ns.app;
    App& app = apps_[app_slot];
    --app.remaining;

    ProcState& ps = proc_state_[ns.record.proc];
    ps.running.reset();
    idle_dirty_ = true;
    ps.exec_history.push_back(ns.record.exec_ms);
    if (ps.exec_history.size() > kHistoryCap) ps.exec_history.pop_front();
    // Feed the hedging threshold: the winner's noise multiplier IS the
    // realized/nominal inflation ratio of this completion.
    if (options_.hedging.enabled) hedge_window_.add(ns.record.noise_mult);

    // Window-clipped utilization accounting, folded in as kernels finish so
    // nothing per-kernel must be retained.
    const sim::TimeMs busy_from =
        std::max(ns.record.exec_start, options_.warmup_ms);
    if (ns.record.finish_time > busy_from) {
      observation_.busy_in_window_ms[ns.record.proc] +=
          ns.record.finish_time - busy_from;
    }
    if (ns.record.finish_time >= options_.warmup_ms)
      ++observation_.kernels_in_window[ns.record.proc];

    for (const dag::NodeId succ : app.shape->dag.successors(slot - app.base)) {
      const dag::NodeId succ_slot = app.base + succ;
      NodeState& ss = node_state_[succ_slot];
      if (--ss.remaining_preds == 0) {
        const sim::TimeMs release =
            app.arrival_ms + app.shape->dag.node(succ).release_ms;
        if (release <= now_) {
          mark_ready(succ_slot);
        } else {
          releases_.push(Event{release, succ_slot});
        }
      }
    }
    if (app.remaining == 0) retire(app_slot);
  }

  void retire(std::uint32_t app_slot) {
    App& app = apps_[app_slot];
    if (profile_) profile_->add(obs::Counter::kRetirements);
    if (sink_) emit_lifecycle(obs::InstantKind::kRetirement, app.index, now_);
    observation_.completed.push_back(sim::StreamAppStats{
        app.index, app.arrival_ms, now_, app.shape->lower_bound_ms,
        app.shape->dag.node_count()});
    if (options_.record_schedules) {
      StreamAppSchedule schedule;
      schedule.index = app.index;
      schedule.arrival_ms = app.arrival_ms;
      schedule.result.schedule.resize(app.shape->dag.node_count());
      sim::TimeMs last = 0.0;
      for (dag::NodeId local = 0; local < app.shape->dag.node_count();
           ++local) {
        schedule.result.schedule[local] = node_state_[app.base + local].record;
        last = std::max(last, schedule.result.schedule[local].finish_time);
      }
      schedule.result.makespan = last;
      schedule.result.transfers = std::move(app.transfers);
      schedule.result.hedges = std::move(app.hedges);
      schedule.dag = app.shape->dag;  // the shape's canonical copy is shared
      schedules_.push_back(std::move(schedule));
    }
    // Clear ownership (and the baked cost rows) before releasing so stale
    // queries fault loudly instead of reading a retired instance's tables.
    for (dag::NodeId local = 0; local < app.remaining_total; ++local) {
      node_state_[app.base + local].app = kNoApp;
      exec_row_[app.base + local] = nullptr;
    }
    release_slots(app.base, app.remaining_total);
    app.shape.reset();  // may free the ShapeEntry if the pool let go
    app.transfers.clear();
    app.hedges.clear();
    free_app_slots_.push_back(app_slot);
    --live_count_;
    observation_.live_apps.observe(now_, live_count_);
  }

  // --- admission ------------------------------------------------------------

  void pull_next_arrival(ArrivalProcess& arrivals) {
    if (options_.max_apps != 0 &&
        observation_.apps_arrived >= options_.max_apps) {
      next_arrival_ = std::nullopt;
      return;
    }
    next_arrival_ = arrivals.next();
    if (next_arrival_ && options_.horizon_ms > 0.0 &&
        *next_arrival_ > options_.horizon_ms)
      next_arrival_ = std::nullopt;
  }

  void process_arrivals(ArrivalProcess& arrivals) {
    while (next_arrival_ && *next_arrival_ <= now_) {
      admit(*next_arrival_);
      pull_next_arrival(arrivals);
    }
  }

  void admit(sim::TimeMs arrival_ms) {
    const std::size_t index = observation_.apps_arrived++;
    if (profile_) profile_->add(obs::Counter::kArrivals);
    if (sink_) emit_lifecycle(obs::InstantKind::kArrival, index, arrival_ms);
    dag::Dag dag = source_(index);

    if (dag.empty()) {
      // A zero-kernel application completes the instant it arrives.
      if (profile_) profile_->add(obs::Counter::kRetirements);
      if (sink_)
        emit_lifecycle(obs::InstantKind::kRetirement, index, arrival_ms);
      observation_.completed.push_back(
          sim::StreamAppStats{index, arrival_ms, arrival_ms, 0.0, 0});
      if (options_.record_schedules) {
        StreamAppSchedule schedule;
        schedule.index = index;
        schedule.arrival_ms = arrival_ms;
        schedules_.push_back(std::move(schedule));
      }
      return;
    }
    if (live_count_ + 1 > options_.max_live_apps)
      throw std::runtime_error(
          "StreamEngine: live-application guard tripped (" +
          std::to_string(options_.max_live_apps) +
          " concurrent apps) — the arrival rate exceeds the platform's "
          "capacity");

    std::uint32_t app_slot;
    if (!free_app_slots_.empty()) {
      app_slot = free_app_slots_.back();
      free_app_slots_.pop_back();
    } else {
      app_slot = static_cast<std::uint32_t>(apps_.size());
      apps_.emplace_back();
    }
    App& app = apps_[app_slot];
    app.index = index;
    app.arrival_ms = arrival_ms;
    app.shape = acquire_shape(std::move(dag));
    const ShapeEntry& shape = *app.shape;
    const std::size_t n = shape.dag.node_count();
    app.remaining = n;
    app.remaining_total = n;
    app.base = allocate_slots(n);
    app.transfers.clear();
    app.hedges.clear();

    for (dag::NodeId local = 0; local < n; ++local) {
      const dag::NodeId slot = app.base + local;
      NodeState& ns = node_state_[slot];
      const std::uint32_t epoch = ns.epoch + 1;  // retire any dead events
      ns = NodeState{};
      ns.epoch = epoch;
      ns.record.node = local;
      ns.app = app_slot;
      ns.remaining_preds = shape.dag.in_degree(local);
      // Bake the shape's cost rows into the per-slot SoA slabs the
      // scheduler queries hit.
      exec_row_[slot] = shape.cost.exec_row(local);
      min_exec_slab_[slot] = shape.min_exec[local];
      min_proc_slab_[slot] = shape.min_proc[local];
      if (ns.remaining_preds == 0) {
        const sim::TimeMs release =
            arrival_ms + shape.dag.node(local).release_ms;
        if (release <= now_) {
          mark_ready(slot);
        } else {
          releases_.push(Event{release, slot});
        }
      }
    }
    ++live_count_;
    observation_.live_apps.observe(now_, live_count_);
  }

  const sim::System& system_;
  const sim::CostModel& base_cost_;
  const DagSource& source_;
  const StreamOptions& options_;
  sim::Policy& policy_;

  /// Contended-topology comm phase (tm_ engaged only when contended_).
  const net::Topology& topology_;
  const bool contended_;
  const std::size_t proc_count_;
  /// Rolling realized/nominal inflation ratios of completed kernels — the
  /// bounded-memory sample the hedging threshold quantile is drawn from
  /// (platform-wide, across application instances).
  util::RollingQuantile hedge_window_;
  /// Observability taps (null = disabled; every use is null-guarded).
  obs::TraceSink* const sink_;
  obs::Profile* const profile_;
  std::optional<net::TransferManager> tm_;
  std::optional<sim::TopologyCostModel> topo_cost_;
  static constexpr std::size_t kNoRecord = static_cast<std::size_t>(-1);
  /// One in-flight message: the waiting kernel's slot and (when schedules
  /// are recorded) the index into its app's transfer log.
  struct InFlight {
    dag::NodeId slot = dag::kInvalidNode;
    std::size_t record = kNoRecord;
  };
  // lint:unordered-ok(keyed lookup only — found/inserted/erased by transfer
  // tag, never iterated, so hash order cannot reach event or output order)
  std::unordered_map<std::uint64_t, InFlight> inflight_;
  std::uint64_t next_transfer_tag_ = 0;
  std::vector<net::Delivery> deliveries_;  ///< advance_to out-buffer, reused

  sim::TimeMs now_ = 0.0;
  std::vector<NodeState> node_state_;  ///< global slot arrays
  std::vector<ProcState> proc_state_;

  // Per-slot SoA cost slabs (grown with node_state_, rebaked per admit):
  // the policy-facing queries read these instead of chasing app pointers.
  std::vector<const sim::TimeMs*> exec_row_;  ///< [slot] -> P exec times
  std::vector<sim::TimeMs> min_exec_slab_;    ///< [slot] min exec time
  std::vector<sim::ProcId> min_proc_slab_;    ///< [slot] lowest argmin

  /// Retired slot ranges, base -> length, adjacent ranges merged.
  std::map<dag::NodeId, std::size_t> free_ranges_;

  std::vector<App> apps_;  ///< reusable instance table (value slots)
  std::vector<std::uint32_t> free_app_slots_;
  std::size_t live_count_ = 0;

  /// Shape pool: structure hash -> confirmed-identical entries.
  static constexpr std::size_t kShapePoolCap = 128;
  // lint:unordered-ok(keyed lookup only — probed/inserted by structure hash
  // and wholesale clear()ed at the cap; the map itself is never iterated,
  // and the per-hash bucket vector scans in deterministic insertion order)
  std::unordered_map<std::uint64_t, std::vector<std::shared_ptr<ShapeEntry>>>
      shape_pool_;
  std::size_t shape_pool_size_ = 0;

  /// Ready slots in arrival order; committed slots leave in place.
  sim::ReadySet ready_;

  mutable std::vector<sim::ProcId> idle_cache_;
  mutable bool idle_dirty_ = true;

  EventQueue events_;    ///< kernel completions
  EventQueue releases_;  ///< future release instants (arrival + offset)
  std::optional<sim::TimeMs> next_arrival_;

  sim::StreamObservation observation_;
  std::vector<StreamAppSchedule> schedules_;
};

StreamEngine::StreamEngine(const sim::System& system,
                           const sim::CostModel& base_cost, DagSource source,
                           StreamOptions options)
    : system_(system),
      base_cost_(base_cost),
      source_(std::move(source)),
      options_(std::move(options)) {
  options_.validate();
  if (!source_)
    throw std::invalid_argument("StreamEngine: DagSource must be callable");
}

StreamOutcome StreamEngine::run(sim::Policy& policy) {
  if (!policy.is_dynamic())
    throw std::invalid_argument(
        "StreamEngine: policy '" + policy.name() +
        "' plans statically from the whole DAG, which does not exist in an "
        "open system — use a dynamic policy");
  if (options_.hedging.enabled && system_.topology().contended())
    throw std::invalid_argument(
        "StreamEngine: straggler hedging requires an uncontended topology "
        "(a replica's input transfers are not modelled as fabric messages)");
  // The same lifecycle every policy sees in the closed-system engine; the
  // DAG is empty because instances only materialize as they arrive.
  // prepare() receives the context's own cost model (topology-priced
  // under a contended fabric), so a policy that caches the reference sees
  // the same object SchedulerContext::cost_model() later returns.
  const dag::Dag no_dag;
  Context ctx(system_, base_cost_, source_, options_, policy);
  policy.prepare(no_dag, system_, ctx.cost_model());
  return ctx.simulate();
}

}  // namespace apt::stream
