#include "stream/stream_engine.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <limits>
#include <optional>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "net/transfer_manager.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"
#include "sim/ready_set.hpp"
#include "sim/validate.hpp"
#include "stream/closed_run.hpp"
#include "util/contracts.hpp"
#include "util/pod_array.hpp"
#include "util/rolling_quantile.hpp"

namespace apt::stream {

void StreamOptions::validate() const {
  arrivals.validate();
  if (arrivals.kind != ArrivalKind::Trace && max_apps == 0 &&
      !(horizon_ms > 0.0))
    throw std::invalid_argument(
        "StreamOptions: an endless arrival process needs max_apps or "
        "horizon_ms to bound the run");
  if (!std::isfinite(warmup_ms) || warmup_ms < 0.0 ||
      !std::isfinite(horizon_ms) || horizon_ms < 0.0)
    throw std::invalid_argument(
        "StreamOptions: warmup/horizon must be finite and >= 0");
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

/// First-fit allocator of index ranges over a growing array: a request
/// takes the lowest-based free range that fits (deterministic), else a new
/// range at the end. Ranges merge on release, so a steady-state stream of
/// same-sized requests recycles one range forever and the array stays
/// proportional to the live backlog. The free ranges sit in one vector
/// sorted by base that keeps its capacity, so admissions and retirements
/// allocate nothing once it has held the most ranges a run leaves free.
class RangeAllocator {
 public:
  /// Base of a free range of `n` indices; end() grows when none fits.
  std::uint32_t allocate(std::size_t n) {
    if (n == 0) return 0;
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->len < n) continue;
      const std::uint32_t base = it->base;
      if (it->len == n) {
        free_.erase(it);
      } else {
        it->base += static_cast<std::uint32_t>(n);
        it->len -= n;
      }
      return base;
    }
    if (n >= kLimit - end_)
      throw std::length_error("StreamEngine: too many live kernels or edges");
    const std::uint32_t base = static_cast<std::uint32_t>(end_);
    end_ += n;
    return base;
  }

  void release(std::uint32_t base, std::size_t n) {
    if (n == 0) return;
    // The first free range above `base`; the released one merges with it
    // and with the range before it where they touch.
    const auto next = std::lower_bound(
        free_.begin(), free_.end(), base,
        [](const Range& r, std::uint32_t b) { return r.base < b; });
    const bool joins_prev =
        next != free_.begin() && std::prev(next)->end() == base;
    const bool joins_next = next != free_.end() &&
                            base + static_cast<std::uint32_t>(n) == next->base;
    if (joins_prev && joins_next) {
      std::prev(next)->len += n + next->len;
      free_.erase(next);
    } else if (joins_prev) {
      std::prev(next)->len += n;
    } else if (joins_next) {
      next->base = base;
      next->len += n;
    } else {
      free_.insert(next, Range{base, n});
    }
  }

  /// One past the highest index ever handed out: the array size needed.
  std::size_t end() const noexcept { return end_; }

 private:
  struct Range {
    std::uint32_t base;
    std::size_t len;
    std::uint32_t end() const noexcept {
      return base + static_cast<std::uint32_t>(len);
    }
  };

  static constexpr std::size_t kLimit = dag::kInvalidNode;
  std::vector<Range> free_;  ///< disjoint, never touching, ascending base
  std::size_t end_ = 0;
};

/// The event core: all mutable state of one run, and the SchedulerContext
/// the policy schedules against. Per-node arrays are indexed by global slot
/// id; a retired instance's slot range returns to the free-range allocator.
///
/// Admission copies everything the lifecycle needs out of an instance's
/// graph: exec rows, slot-indexed predecessor/successor ranges (CSR) with
/// each in-edge's weight, and release offsets. From then on no kernel path
/// reads the dag::Dag or calls the cost model: an edge's transfer time is
/// one read of the run's pair tables (CostModel::pair_tables). An open run
/// therefore drops each graph at admission unless a recorded schedule or a
/// trace sink's kernel names need it later.
///
/// An open run (StreamEngine::run) admits instances from a DagSource as the
/// arrival process delivers them. A closed run (sim::Engine::run, through
/// detail::run_closed) admits one borrowed graph at t = 0 as arrival 0, so
/// slot == node id and its noise draws are instance 0's. It records every
/// kernel, transfer, and hedge, and skips everything only stream metrics
/// read: lifecycle instants and counts, the lower bound, the queue-depth
/// trace. It stops as soon as the instance retires.
class EventCore final : public sim::SchedulerContext {
 public:
  /// Exactly one of `source` (open run) and `closed` (closed run) is set.
  EventCore(const sim::System& system, const sim::CostModel& base_cost,
            const StreamOptions& options, sim::Policy& policy,
            const DagSource* source, const dag::Dag* closed)
      : system_(system),
        base_cost_(base_cost),
        source_(source),
        closed_(closed),
        options_(options),
        policy_(policy),
        topology_(system.topology()),
        contended_(topology_.contended()),
        hedging_(options.hedging.enabled),
        proc_count_(system.proc_count()),
        hedge_window_(options.hedging.window),
        keep_dags_(options.record_schedules || options.sink != nullptr),
        sink_(options.sink),
        profile_(options.profile),
        proc_state_(system.proc_count()) {
    if (hedging_ && contended_)
      throw std::invalid_argument(
          std::string(who()) +
          ": straggler hedging requires an uncontended topology (a "
          "replica's input transfers are not modelled as fabric messages)");
    cost_ = &base_cost_;
    if (contended_) {
      tm_.emplace(topology_);
      // Per-link busy/bytes clip to the observation window exactly like
      // processor busy time, so steady-state link utilization is unbiased
      // by warmup traffic.
      tm_->set_window_start(options.warmup_ms);
      tm_->set_profile(profile_);
      // Policies and transfer stalls price edges against the fabric, not
      // the base model's uncontended point-to-point links — this is what
      // makes HEFT/PEFT EFT estimates topology-aware.
      cost_ = &topo_cost_.emplace(base_cost_, system_);
    }
    prices_ = cost_->pair_tables(system.processors());
    observation_.warmup_ms = options.warmup_ms;
    observation_.busy_in_window_ms.assign(system.proc_count(), 0.0);
    observation_.kernels_in_window.assign(system.proc_count(), 0);
    observation_.queue_depth.set_window_start(options.warmup_ms);
    observation_.live_apps.set_window_start(options.warmup_ms);
    idle_cache_.reserve(system.proc_count());
    worst_from_.resize(system.proc_count());
  }

  /// Open run to quiescence, then the stream metrics.
  StreamOutcome run_open() {
    arrivals_.emplace(options_.arrivals);
    pull_next_arrival();
    process_arrivals();  // a trace may start at t = 0
    simulate();
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

  /// Closed run of a non-empty graph until its last kernel retires.
  sim::SimResult run_closed() {
    place(0, 0.0, dag::Dag{});
    simulate();
    return std::move(closed_result_);
  }

  // --- SchedulerContext -----------------------------------------------------

  sim::TimeMs now() const override { return now_; }

  const dag::Dag& dag() const override {
    if (closed_) return *closed_;
    throw std::logic_error(
        "StreamEngine: SchedulerContext::dag() is unavailable in stream "
        "contexts (the ready set spans many DAG instances)");
  }

  const sim::System& system() const override { return system_; }
  const sim::CostModel& cost_model() const override { return *cost_; }

  const std::vector<dag::NodeId>& ready() const override {
    return ready_.nodes();
  }

  sim::ReadyRange ready_from(std::size_t first) const override {
    return ready_.tail(first);
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
  // admission filled — one load instead of the slot -> app -> cost-model
  // virtual chain. A retired slot's values linger until its range is
  // reused, so the guard catches a query that outlived its instance.
  sim::TimeMs exec_time_ms(dag::NodeId slot,
                           sim::ProcId proc) const override {
    APT_ASSERT(node_state_[slot].app != kNoApp,
               "exec_time_ms on retired slot %u", slot);
    return exec_slab_[slot * proc_count_ + proc];
  }

  sim::TimeMs min_exec_time_ms(dag::NodeId slot) const override {
    APT_ASSERT(node_state_[slot].app != kNoApp,
               "min_exec_time_ms on retired slot %u", slot);
    return min_exec_slab_[slot];
  }

  sim::ProcId min_exec_proc(dag::NodeId slot) const override {
    APT_ASSERT(node_state_[slot].app != kNoApp,
               "min_exec_proc on retired slot %u", slot);
    return min_proc_slab_[slot];
  }

  // Transfer queries walk the slot's predecessor range and price each edge
  // from the pair tables: no graph, no virtual call, no edge search.
  sim::TimeMs input_transfer_ms(dag::NodeId slot,
                                sim::ProcId proc) const override {
    APT_ASSERT(node_state_[slot].app != kNoApp && proc < proc_count_,
               "retired slot %u or unknown processor %u", slot, proc);
    const Adjacency& adj = adjacency_[slot];
    sim::TimeMs worst = 0.0;
    for (std::uint32_t e = adj.pred_begin; e != adj.pred_end; ++e) {
      worst = std::max(worst, prices_.transfer_ms(pred_weight_[e],
                                                  producer_proc(e), proc));
    }
    return worst;
  }

  sim::TransferEstimate transfer_estimate(dag::NodeId slot,
                                          sim::ProcId proc) const override {
    APT_ASSERT(node_state_[slot].app != kNoApp && proc < proc_count_,
               "retired slot %u or unknown processor %u", slot, proc);
    sim::TransferEstimate est;
    est.noise = options_.noise;
    const Adjacency& adj = adjacency_[slot];
    sim::ProcId worst_from = proc;  // local: contributes no link
    for (std::uint32_t e = adj.pred_begin; e != adj.pred_end; ++e)
      price_edge(pred_weight_[e], producer_proc(e), proc, est, worst_from);
    pin_idle_bottleneck(worst_from, proc, est);
    return est;
  }

  // The row queries walk the predecessor range once and price every
  // processor from the producer's pair-table row, each through the scalar's
  // own steps in the scalar's order, so out[p] is transfer_estimate(slot, p)
  // bit for bit. Only transfer_estimates reads the fabric.
  void transfer_stalls(dag::NodeId slot, sim::TimeMs* out) const override {
    APT_ASSERT(node_state_[slot].app != kNoApp, "retired slot %u", slot);
    std::fill_n(out, proc_count_, 0.0);
    const Adjacency& adj = adjacency_[slot];
    for (std::uint32_t e = adj.pred_begin; e != adj.pred_end; ++e) {
      const sim::ProcId from = producer_proc(e);
      const double weight = pred_weight_[e];
      for (sim::ProcId p = 0; p < proc_count_; ++p) {
        const sim::TimeMs edge = prices_.transfer_ms(weight, from, p);
        if (edge > out[p]) out[p] = edge;
      }
    }
  }

  void transfer_estimates(dag::NodeId slot,
                          sim::TransferEstimate* out) const override {
    APT_ASSERT(node_state_[slot].app != kNoApp, "retired slot %u", slot);
    for (sim::ProcId p = 0; p < proc_count_; ++p) {
      out[p] = sim::TransferEstimate{};
      out[p].noise = options_.noise;
      worst_from_[p] = p;
    }
    const Adjacency& adj = adjacency_[slot];
    for (std::uint32_t e = adj.pred_begin; e != adj.pred_end; ++e) {
      const sim::ProcId from = producer_proc(e);
      const double weight = pred_weight_[e];
      for (sim::ProcId p = 0; p < proc_count_; ++p)
        price_edge(weight, from, p, out[p], worst_from_[p]);
    }
    for (sim::ProcId p = 0; p < proc_count_; ++p)
      pin_idle_bottleneck(worst_from_[p], p, out[p]);
  }

  const sim::NoiseSpec& noise() const override { return options_.noise; }

  void assign(dag::NodeId slot, sim::ProcId proc, bool alternative) override {
    if (!is_idle(proc))
      throw std::logic_error(std::string(who()) + "::assign: processor " +
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
    drain_due_ = true;
    // The destination is fixed, so contended input data starts moving now
    // and may prefetch while the kernel waits in the queue.
    if (contended_)
      begin_comm(slot, proc,
                 now_ + system_.config().decision_overhead_ms +
                     system_.config().dispatch_overhead_ms);
    // drain_queues() (called right after the policy pass) starts it if the
    // processor is actually free.
  }

 private:
  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);
  static constexpr std::uint32_t kNoApp = static_cast<std::uint32_t>(-1);
  /// Bounded per-processor execution history (memory over long runs). Its
  /// only reader, AG's recent-window estimator, looks back 5 completions.
  static constexpr std::size_t kHistoryCap = 1024;

  /// The processor that ran the producer of in-edge `e`.
  sim::ProcId producer_proc(std::uint32_t e) const {
    const dag::NodeId pred = pred_slot_[e];
    const sim::ProcId from = node_state_[pred].record.proc;
    // Internal invariant (not policy-misuse validation): ready slots only
    // surface once every predecessor was scheduled.
    APT_ASSERT(from != sim::kInvalidProc, "predecessor %u not yet scheduled",
               pred);
    return from;
  }

  /// Folds one in-edge, produced on `from`, into the estimate for `proc`:
  /// the edge's unloaded price (the stall is the first maximum, so
  /// `worst_from` names its producer), and on a contended fabric the
  /// predicted drain of each link of its route at the current max-min rates
  /// (tm_ is advanced to now_ before every policy pass). The most
  /// backlogged link, first in hop order on ties, pins the estimate.
  void price_edge(double weight, sim::ProcId from, sim::ProcId proc,
                  sim::TransferEstimate& est, sim::ProcId& worst_from) const {
    const sim::TimeMs edge = prices_.transfer_ms(weight, from, proc);
    if (edge > est.stall_ms) {
      est.stall_ms = edge;
      worst_from = from;
    }
    if (!tm_) return;
    for (const net::LinkId l : topology_.route(from, proc)) {
      const sim::TimeMs drain = tm_->link_drain_ms(l);
      if (drain > est.link_queueing_ms) {
        est.link_queueing_ms = drain;
        est.bottleneck_link = l;
      }
    }
  }

  /// Idle fabric (or ideal topology): pins the estimate to the unloaded
  /// bottleneck of the worst input's route; kNoLink when that is local.
  void pin_idle_bottleneck(sim::ProcId worst_from, sim::ProcId proc,
                           sim::TransferEstimate& est) const {
    if (est.bottleneck_link == net::kNoLink && contended_ &&
        worst_from != proc)
      est.bottleneck_link = topology_.bottleneck_link(worst_from, proc);
  }

  /// The per-slot state every run reads. Admission writes one per kernel,
  /// so it stays small; hedging and the contended comm phase keep their
  /// fields in the side tables below.
  struct NodeState {
    sim::ScheduledKernel record;  ///< record.node holds the LOCAL node id
    bool ready = false;
    bool assigned = false;
    bool done = false;
    bool exec_started = false;   ///< computation has begun
    std::uint32_t app = kNoApp;  ///< owning slot in apps_
    std::uint32_t epoch = 0;     ///< slot reuse generation (see Event)
    std::uint32_t remaining_preds = 0;
    sim::TimeMs enqueued_at = std::numeric_limits<sim::TimeMs>::quiet_NaN();
  };
  static_assert(sizeof(NodeState) <= 96,
                "NodeState is the hot per-kernel state: move new fields that "
                "only some runs read to a side table");

  /// Straggler-hedging state of a slot; the table exists only when hedging
  /// is on.
  struct HedgeState {
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
  };

  /// Contended-topology comm phase of a slot; the table exists only on a
  /// contended fabric.
  struct CommState {
    bool holds_proc = false;       ///< occupies its processor, maybe stalled
    std::size_t pending_msgs = 0;  ///< input messages still in flight
    sim::TimeMs occupied_at = 0.0;
    sim::TimeMs data_ready_at = 0.0;
  };

  /// A kernel waiting in a processor's FIFO queue with its (destination
  /// fixed, hence known) execution time.
  struct QueuedKernel {
    dag::NodeId slot;
    sim::TimeMs exec_ms;
  };

  struct ProcState {
    std::optional<dag::NodeId> running;
    std::deque<QueuedKernel> queue;
    std::deque<sim::TimeMs> exec_history;  ///< newest at the back, capped
  };

  /// One live application instance — a plain value in the reusable app
  /// table, so its vectors keep their capacity from tenant to tenant.
  struct App {
    std::size_t index = 0;  ///< global arrival index
    sim::TimeMs arrival_ms = 0.0;
    /// A closed run's graph, borrowed for the run; null in open runs.
    const dag::Dag* borrowed = nullptr;
    /// An open run's graph, kept past admission only when keep_dags_;
    /// retire() moves it into the recorded schedule.
    dag::Dag owned;
    sim::TimeMs lower_bound_ms = 0.0;      ///< isolated makespan bound
    dag::NodeId base = dag::kInvalidNode;  ///< first global slot
    std::size_t kernels = 0;               ///< slots from base
    std::uint32_t edge_base = 0;           ///< first entry in the edge slabs
    std::size_t edges = 0;                 ///< edge-slab entries from there
    std::size_t remaining = 0;             ///< kernels not yet completed
    /// Completed/in-flight link messages, local node ids, absolute times.
    /// Only populated when StreamOptions::record_schedules (memory stays
    /// bounded by the live backlog otherwise).
    std::vector<sim::TransferRecord> transfers;
    /// Hedging episodes of this instance (local node ids), launch order.
    /// Always populated while live — the aggregate counters fold out of
    /// it — but only retained into the outcome under record_schedules.
    std::vector<sim::HedgeRecord> hedges;

    /// Read only at admission and by trace spans.
    const dag::Dag& dag() const { return borrowed ? *borrowed : owned; }
  };

  /// A slot's predecessor and successor entries in the edge slabs,
  /// [begin, end) each, in Dag::predecessors / Dag::successors order.
  struct Adjacency {
    std::uint32_t pred_begin = 0;
    std::uint32_t pred_end = 0;
    std::uint32_t succ_begin = 0;
    std::uint32_t succ_end = 0;
  };

  /// Entry point name for error messages.
  const char* who() const { return closed_ ? "Engine" : "StreamEngine"; }

  const App& app_of(dag::NodeId slot) const {
    const std::uint32_t a = node_state_.at(slot).app;
    if (a == kNoApp)
      throw std::logic_error(std::string(who()) +
                             ": slot has no live application");
    return apps_[a];
  }

  // --- slot and edge ranges ------------------------------------------------

  /// A range of `n` slots (first fit, see RangeAllocator), growing every
  /// slot-indexed array when nothing retired fits.
  dag::NodeId allocate_slots(std::size_t n) {
    const dag::NodeId base = slots_.allocate(n);
    const std::size_t size = slots_.end();
    if (size > node_state_.size()) {
      node_state_.resize(size);
      if (hedging_) hedge_.resize(size);
      if (contended_) comm_.resize(size);
      ready_.resize(size);
      exec_slab_.resize(size * proc_count_, 0.0);
      min_exec_slab_.resize(size, 0.0);
      min_proc_slab_.resize(size, 0);
      adjacency_.resize(size);
      release_slab_.resize(size, 0.0);
    }
    return base;
  }

  /// A range of `n` entries in each edge slab.
  std::uint32_t allocate_edges(std::size_t n) {
    const std::uint32_t base = edges_.allocate(n);
    const std::size_t size = edges_.end();
    if (size > pred_slot_.size()) {
      pred_slot_.resize(size);
      pred_weight_.resize(size);
      succ_slot_.resize(size);
    }
    return base;
  }

  // --- ready-set bookkeeping (sim::ReadySet) ---------------------------------

  void mark_ready(dag::NodeId slot) {
    if (profile_) profile_->add(obs::Counter::kReadyMarked);
    NodeState& ns = node_state_[slot];
    ns.ready = true;
    ns.record.ready_time = now_;
    ready_.push_back(slot);
    observe_queue_depth();
  }

  void take_from_ready(dag::NodeId slot) {
    NodeState& ns = node_state_.at(slot);
    if (!ns.ready || ns.assigned)
      throw std::logic_error(std::string(who()) + ": slot " +
                             std::to_string(slot) +
                             " is not in the ready set");
    ns.assigned = true;
    ready_.erase(slot);
    observe_queue_depth();
  }

  /// The queue-depth trace feeds only stream metrics; closed runs skip it.
  void observe_queue_depth() {
    if (!closed_) observation_.queue_depth.observe(now_, ready_.size());
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
    span.kernel = app.dag().node(local).kernel.c_str();
    span.proc = ns.record.proc;
    span.occupied_from = ns.record.occupied_from();
    span.exec_start = ns.record.exec_start;
    span.finish = ns.record.finish_time;
    span.noise_mult = ns.record.noise_mult;
    span.alternative = ns.record.alternative;
    if (hedging_ && hedge_[slot].hedge_idx != kNoPos)
      span.role = app.hedges[hedge_[slot].hedge_idx].replica_won
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
    span.kernel = app.dag().node(local).kernel.c_str();
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

  // --- kernel lifecycle -----------------------------------------------------

  /// Contended mode: creates one link message per non-local input edge of
  /// `slot`, entering the fabric at the dispatch instant. Called exactly
  /// once per kernel, when the policy commits it (assign or enqueue fixes
  /// the destination).
  void begin_comm(dag::NodeId slot, sim::ProcId proc,
                  sim::TimeMs dispatched) {
    const NodeState& ns = node_state_[slot];
    if (ns.app == kNoApp)
      throw std::logic_error(std::string(who()) +
                             ": slot has no live application");
    App& app = apps_[ns.app];
    const Adjacency& adj = adjacency_[slot];
    CommState& cs = comm_[slot];
    cs.data_ready_at = dispatched;
    for (std::uint32_t e = adj.pred_begin; e != adj.pred_end; ++e) {
      const sim::ScheduledKernel& rec = node_state_[pred_slot_[e]].record;
      const net::Topology::Route route = topology_.route(rec.proc, proc);
      if (route.empty()) continue;  // same processor, socket, or cell
      // On a contended fabric cost_ is the TopologyCostModel, whose edge
      // weight is the producer's payload: the message size.
      const double bytes = pred_weight_[e];
      const std::uint64_t tag = next_transfer_tag_++;
      // A trace sink needs the full message record at delivery time, so
      // tracing also populates the app's transfer log; retire() still
      // clears it when schedules are not recorded, keeping memory bounded
      // by the live backlog.
      if (options_.record_schedules || sink_) {
        sim::TransferRecord record;
        record.src = pred_slot_[e] - app.base;
        record.dst = slot - app.base;
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
      ++cs.pending_msgs;
      if (profile_) profile_->add(obs::Counter::kTransfersStarted);
    }
  }

  /// Contended mode: all inputs are in — computation begins at `at`.
  void begin_exec(dag::NodeId slot, sim::TimeMs at) {
    NodeState& ns = node_state_[slot];
    ns.exec_started = true;
    ns.record.exec_start = at;
    ns.record.transfer_ms = at - comm_[slot].occupied_at;
    ns.record.finish_time = at + ns.record.exec_ms;
    events_.push(
        Event{ns.record.finish_time, slot, EventKind::kCompletion, ns.epoch});
  }

  /// One input message delivered; start the kernel when it was the last
  /// and the kernel already holds its processor.
  void on_delivery(const net::Delivery& delivery) {
    const auto it = inflight_.find(delivery.tag);
    if (it == inflight_.end())
      throw std::logic_error(std::string(who()) +
                             ": delivery for unknown transfer");
    const InFlight flight = it->second;
    inflight_.erase(it);
    const NodeState& ns = node_state_[flight.slot];
    if (flight.record != kNoRecord) {
      sim::TransferRecord& record = apps_[ns.app].transfers[flight.record];
      record.finish = now_;
      if (sink_) emit_transfer_span(record, apps_[ns.app].index);
    }
    CommState& cs = comm_[flight.slot];
    --cs.pending_msgs;
    cs.data_ready_at = std::max(cs.data_ready_at, now_);
    if (cs.pending_msgs == 0 && cs.holds_proc)
      begin_exec(flight.slot, std::max(cs.occupied_at, cs.data_ready_at));
  }

  /// Stamps the realized execution time of `slot` on its processor: the
  /// nominal (SoA-baked) duration times the per-kernel noise multiplier
  /// (exactly 1.0 — and no RNG consulted — when noise is disabled). The
  /// noise instance is the app's global arrival index and the node id is
  /// local, so the draw is independent of slot placement, scheduling
  /// order, and --jobs, and a closed run draws instance 0.
  void stamp_exec_time(NodeState& ns, dag::NodeId slot, sim::TimeMs nominal) {
    if (hedging_) hedge_[slot].nominal_exec_ms = nominal;
    if (options_.noise.enabled()) {
      const App& app = app_of(slot);
      ns.record.noise_mult =
          sim::noise_multiplier(options_.noise, app.index, slot - app.base, 0);
      ns.record.exec_ms = realized_exec_ms(nominal, ns.record.noise_mult);
    } else {
      ns.record.noise_mult = 1.0;
      ns.record.exec_ms = nominal;
    }
  }

  /// nominal × mult, refusing what a valid NoiseSpec can still realize: a
  /// multiplier that underflows to 0 (huge sigma), which would let kernels
  /// beat their own lower bound, or a duration that overflows (huge tail
  /// multiplier), which no event loop can reach.
  sim::TimeMs realized_exec_ms(sim::TimeMs nominal, double mult) const {
    if (!(std::isfinite(mult) && mult > 0.0))
      throw std::invalid_argument(
          std::string(who()) +
          ": a noise multiplier realized outside (0, inf) — sigma or the "
          "tail multiplier is too large");
    const sim::TimeMs exec_ms = nominal * mult;
    if (!std::isfinite(exec_ms))
      throw std::invalid_argument(
          std::string(who()) +
          ": a realized execution time is not finite — the noise "
          "multiplier overflows it");
    return exec_ms;
  }

  /// Starts `slot` on the idle processor `proc` at the current time.
  void start_kernel(dag::NodeId slot, sim::ProcId proc, bool alternative) {
    NodeState& ns = node_state_[slot];
    const sim::SystemConfig& cfg = system_.config();
    ns.record.proc = proc;
    ns.record.alternative = alternative;
    ns.record.assign_time = now_ + cfg.decision_overhead_ms;
    const sim::TimeMs dispatched =
        ns.record.assign_time + cfg.dispatch_overhead_ms;
    if (contended_) {
      // The processor is dedicated from dispatch; computation begins when
      // the simulated input messages are all delivered.
      stamp_exec_time(ns, slot, exec_time_ms(slot, proc));
      CommState& cs = comm_[slot];
      cs.occupied_at = dispatched;
      cs.holds_proc = true;
      proc_state_[proc].running = slot;
      idle_dirty_ = true;
      begin_comm(slot, proc, dispatched);
      if (cs.pending_msgs == 0) begin_exec(slot, cs.data_ready_at);
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
    if (hedging_) schedule_hedge_check(slot);
  }

  /// Pops queue heads onto idle processors. (Profiled as its own phase;
  /// the calls from advance_to_next_event nest inside that timer.) Every
  /// drain leaves no processor both free and queued, and only a completion
  /// (which frees a processor) or an enqueue (which fills a queue) can
  /// undo that, so the scan is skipped when neither happened since.
  void drain_queues() {
    obs::ScopedTimer timer(profile_, obs::Timer::kDrainQueues);
    if (!drain_due_) return;
    drain_due_ = false;
    for (sim::ProcId p = 0; p < proc_state_.size(); ++p) {
      ProcState& ps = proc_state_[p];
      if (ps.running.has_value() || ps.queue.empty()) continue;
      const QueuedKernel next = ps.queue.front();
      ps.queue.pop_front();
      start_queued_kernel(next, p);
    }
  }

  /// Starts a previously enqueued kernel whose transfer began at enqueue
  /// time (the destination was fixed then, so the data could prefetch).
  void start_queued_kernel(const QueuedKernel& queued, sim::ProcId proc) {
    NodeState& ns = node_state_[queued.slot];
    const sim::SystemConfig& cfg = system_.config();
    if (contended_) {
      // Messages have been in flight since the enqueue; the processor
      // picks the kernel up now and stalls until the last one lands.
      ns.record.proc = proc;
      stamp_exec_time(ns, queued.slot, queued.exec_ms);
      CommState& cs = comm_[queued.slot];
      cs.occupied_at = now_;
      cs.holds_proc = true;
      proc_state_[proc].running = queued.slot;
      idle_dirty_ = true;
      if (cs.pending_msgs == 0)
        begin_exec(queued.slot, std::max(now_, cs.data_ready_at));
      return;
    }
    const sim::TimeMs transfer = input_transfer_ms(queued.slot, proc);
    const sim::TimeMs data_ready = ns.enqueued_at + cfg.decision_overhead_ms +
                                   cfg.dispatch_overhead_ms + transfer;
    // assign_time was stamped at enqueue; the processor picks the kernel up
    // now, and computation starts once the (possibly prefetched) data is in.
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
    if (hedging_) schedule_hedge_check(queued.slot);
  }

  /// Transfer stall for a direct assignment, honouring the policy's
  /// transfer semantics.
  sim::TimeMs transfer_delay(dag::NodeId slot, sim::ProcId proc,
                             sim::TimeMs from_time) {
    if (policy_.transfer_semantics() == sim::TransferSemantics::AtAssignment)
      return input_transfer_ms(slot, proc);
    // Prefetched: each edge's data has been moving since the predecessor
    // finished; the kernel only stalls for whatever is still in flight.
    const Adjacency& adj = adjacency_[slot];
    sim::TimeMs data_ready = from_time;
    for (std::uint32_t e = adj.pred_begin; e != adj.pred_end; ++e) {
      const sim::ScheduledKernel& rec = node_state_[pred_slot_[e]].record;
      const double weight = pred_weight_[e];
      const sim::TimeMs edge = prices_.transfer_ms(weight, rec.proc, proc);
      data_ready = std::max(data_ready, rec.finish_time + edge);
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
    const sim::TimeMs threshold =
        hedge_threshold_ms(hedge_[slot].nominal_exec_ms);
    events_.push(Event{ns.record.exec_start + threshold, slot,
                       EventKind::kHedgeCheck, ns.epoch});
  }

  /// A hedge check came due at `t`. The threshold is re-derived from the
  /// CURRENT rolling window (it may have grown since the check was armed);
  /// if the kernel is not yet overdue under the fresh threshold the check
  /// re-arms at the new instant, otherwise a replica launches — once per
  /// kernel, and only if some processor is idle right now (hedging never
  /// preempts or queues; a saturated platform has no spare capacity worth
  /// burning on duplicates).
  void process_hedge_check(dag::NodeId slot, sim::TimeMs t) {
    const NodeState& ns = node_state_[slot];
    HedgeState& hs = hedge_[slot];
    if (ns.done || hs.hedged || !ns.exec_started) return;
    const sim::TimeMs due =
        ns.record.exec_start + hedge_threshold_ms(hs.nominal_exec_ms);
    if (due > t) {
      events_.push(Event{due, slot, EventKind::kHedgeCheck, ns.epoch});
      return;
    }
    hs.hedged = true;  // one decision per kernel, launched or dropped
    const std::vector<sim::ProcId>& idle = idle_processors();
    if (idle.empty()) return;
    // Fastest idle destination by NOMINAL time (the realized duration is
    // unknowable before it happens); idle list ascends, so ties break to
    // the lowest processor id.
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
  /// and its input transfers from scratch (nothing was prefetched for it)
  /// — and draws its own noise substream (replica id 1).
  void launch_replica(dag::NodeId slot, sim::ProcId proc, sim::TimeMs nominal,
                      sim::TimeMs t) {
    const NodeState& ns = node_state_[slot];
    HedgeState& hs = hedge_[slot];
    App& app = apps_[ns.app];
    const sim::SystemConfig& cfg = system_.config();
    const sim::TimeMs dispatched =
        t + cfg.decision_overhead_ms + cfg.dispatch_overhead_ms;
    hs.replica_proc = proc;
    hs.replica_transfer_ms = input_transfer_ms(slot, proc);
    hs.replica_exec_start = dispatched + hs.replica_transfer_ms;
    hs.replica_mult = options_.noise.enabled()
                          ? sim::noise_multiplier(options_.noise, app.index,
                                                  slot - app.base, 1)
                          : 1.0;
    hs.replica_exec_ms = realized_exec_ms(nominal, hs.replica_mult);
    hs.replica_finish = hs.replica_exec_start + hs.replica_exec_ms;
    hs.replica_outstanding = true;
    hs.hedge_idx = app.hedges.size();
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
        Event{hs.replica_finish, slot, EventKind::kReplica, ns.epoch});
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
    const NodeState& ns = node_state_[slot];
    if (ns.done) return;
    if (hedging_ && hedge_[slot].replica_outstanding) {
      HedgeState& hs = hedge_[slot];
      hs.replica_outstanding = false;
      proc_state_[hs.replica_proc].running.reset();
      idle_dirty_ = true;
      sim::HedgeRecord& h = apps_[ns.app].hedges[hs.hedge_idx];
      h.replica_won = false;
      h.winner_finish_ms = ns.record.finish_time;
      h.cancelled_ms = ns.record.finish_time;
      h.loser_start_ms = hs.replica_exec_start - hs.replica_transfer_ms;
      account_loser(hs.replica_proc, h.loser_start_ms, hs.replica_exec_start,
                    h.cancelled_ms);
      if (sink_)
        emit_loser_span(slot, hs.replica_proc, h.loser_start_ms,
                        hs.replica_exec_start, h.cancelled_ms,
                        hs.replica_mult, obs::SpanRole::kHedgeReplica);
    }
    complete_kernel(slot);
  }

  /// Replica completion event. Skipped when stale (the primary won first);
  /// otherwise the replica wins: the straggling primary is cancelled now,
  /// its processor freed, and the schedule record rewritten to describe
  /// the winning attempt (the loser survives in the HedgeRecord).
  void complete_replica(dag::NodeId slot) {
    NodeState& ns = node_state_[slot];
    HedgeState& hs = hedge_[slot];
    if (ns.done || !hs.replica_outstanding) return;
    hs.replica_outstanding = false;
    proc_state_[ns.record.proc].running.reset();
    idle_dirty_ = true;
    sim::HedgeRecord& h = apps_[ns.app].hedges[hs.hedge_idx];
    h.replica_won = true;
    h.winner_finish_ms = hs.replica_finish;
    h.cancelled_ms = hs.replica_finish;
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
    ns.record.proc = hs.replica_proc;
    ns.record.assign_time =
        h.launched_ms + system_.config().decision_overhead_ms;
    ns.record.exec_start = hs.replica_exec_start;
    ns.record.exec_ms = hs.replica_exec_ms;
    ns.record.transfer_ms = hs.replica_transfer_ms;
    ns.record.finish_time = hs.replica_finish;
    ns.record.noise_mult = hs.replica_mult;
    complete_kernel(slot);
  }

  // --- event loop -----------------------------------------------------------

  /// Alternates policy passes and event instants. An open run ends at
  /// quiescence (dead hedge events and pending arrivals still advance the
  /// clock); a closed run ends the moment its instance retires. The ready
  /// set's dead entries are squeezed out after a pass that leaves more of
  /// them than live ones, and booked with that pass.
  void simulate() {
    for (;;) {
      {
        obs::ScopedTimer timer(profile_, obs::Timer::kPolicyPass);
        policy_.on_event(*this);
        if (ready_.compaction_due()) ready_.compact();
      }
      if (profile_) profile_->add(obs::Counter::kPolicyPasses);
      drain_queues();
      const bool quiescent = events_.empty() && releases_.empty() &&
                             !next_arrival_ && !(tm_ && tm_->busy());
      if (live_count_ == 0 && (quiescent || closed_)) {
        if (profile_) {
          profile_->add(obs::Counter::kReadyCompactions, ready_.compactions());
          profile_->add(obs::Counter::kReadyEntriesMoved,
                        ready_.entries_moved());
        }
        break;
      }
      if (quiescent) {
        throw std::logic_error(std::string(who()) + ": policy '" +
                               policy_.name() +
                               "' stalled: work remains but nothing is "
                               "executing and no arrival is pending");
      }
      advance_to_next_event();
    }
  }

  /// Advances the clock to the earliest pending event (completion,
  /// replica race, hedge check, delivery, release, or arrival), processes
  /// everything sharing that timestamp, then updates queue heads.
  void advance_to_next_event() {
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
    process_arrivals();
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
    // Also covers the processor a cancelled hedge race loser freed: both
    // race outcomes end here.
    drain_due_ = true;
    ps.exec_history.push_back(ns.record.exec_ms);
    if (ps.exec_history.size() > kHistoryCap) ps.exec_history.pop_front();
    // Feed the hedging threshold: the winner's noise multiplier IS the
    // realized/nominal inflation ratio of this completion.
    if (hedging_) hedge_window_.add(ns.record.noise_mult);

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

    const Adjacency& adj = adjacency_[slot];
    for (std::uint32_t e = adj.succ_begin; e != adj.succ_end; ++e) {
      const dag::NodeId succ_slot = succ_slot_[e];
      NodeState& ss = node_state_[succ_slot];
      if (--ss.remaining_preds == 0) {
        const sim::TimeMs release = app.arrival_ms + release_slab_[succ_slot];
        if (release <= now_) {
          mark_ready(succ_slot);
        } else {
          releases_.push(Event{release, succ_slot});
        }
      }
    }
    if (app.remaining == 0) retire(app_slot);
  }

  /// The instance's full schedule (local node ids, absolute times); moves
  /// its transfer and hedge logs out.
  sim::SimResult take_result(App& app) {
    const std::size_t n = app.kernels;
    sim::SimResult result;
    result.schedule.resize(n);
    for (dag::NodeId local = 0; local < n; ++local) {
      result.schedule[local] = node_state_[app.base + local].record;
      result.makespan =
          std::max(result.makespan, result.schedule[local].finish_time);
    }
    result.transfers = std::move(app.transfers);
    result.hedges = std::move(app.hedges);
    return result;
  }

  void retire(std::uint32_t app_slot) {
    App& app = apps_[app_slot];
    const std::size_t n = app.kernels;
    if (closed_) {
      closed_result_ = take_result(app);
    } else {
      if (profile_) profile_->add(obs::Counter::kRetirements);
      if (sink_)
        emit_lifecycle(obs::InstantKind::kRetirement, app.index, now_);
      observation_.completed.push_back(sim::StreamAppStats{
          app.index, app.arrival_ms, now_, app.lower_bound_ms, n});
      if (options_.record_schedules) {
        StreamAppSchedule schedule;
        schedule.index = app.index;
        schedule.arrival_ms = app.arrival_ms;
        schedule.result = take_result(app);
        schedule.dag = std::move(app.owned);  // the instance is done with it
        schedules_.push_back(std::move(schedule));
      }
    }
    // Clear ownership before releasing so stale queries trip the slot guard
    // instead of reading a retired instance's costs.
    for (dag::NodeId local = 0; local < n; ++local)
      node_state_[app.base + local].app = kNoApp;
    slots_.release(app.base, n);
    edges_.release(app.edge_base, app.edges);
    app.owned = dag::Dag{};
    app.transfers.clear();
    app.hedges.clear();
    free_app_slots_.push_back(app_slot);
    --live_count_;
    if (!closed_) observation_.live_apps.observe(now_, live_count_);
  }

  // --- admission ------------------------------------------------------------

  void pull_next_arrival() {
    if (options_.max_apps != 0 &&
        observation_.apps_arrived >= options_.max_apps) {
      next_arrival_ = std::nullopt;
      return;
    }
    next_arrival_ = arrivals_->next();
    if (next_arrival_ && options_.horizon_ms > 0.0 &&
        *next_arrival_ > options_.horizon_ms)
      next_arrival_ = std::nullopt;
  }

  void process_arrivals() {
    while (next_arrival_ && *next_arrival_ <= now_) {
      admit(*next_arrival_);
      pull_next_arrival();
    }
  }

  /// Open run: draws the next instance from the source and admits it.
  void admit(sim::TimeMs arrival_ms) {
    const std::size_t index = observation_.apps_arrived++;
    if (profile_) profile_->add(obs::Counter::kArrivals);
    if (sink_) emit_lifecycle(obs::InstantKind::kArrival, index, arrival_ms);
    dag::Dag dag = (*source_)(index);

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
    place(index, arrival_ms, std::move(dag));
    observation_.live_apps.observe(now_, live_count_);
  }

  /// Gives a non-empty instance an app-table entry and slot and edge
  /// ranges, copies its costs and structure into them, and seeds its entry
  /// kernels. A closed run places its borrowed graph; an open run hands
  /// over the `owned` one, which is dropped here unless keep_dags_.
  void place(std::size_t index, sim::TimeMs arrival_ms, dag::Dag owned) {
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
    app.borrowed = closed_;
    {
      const dag::Dag& dag = closed_ ? *closed_ : owned;
      app.kernels = dag.node_count();
      app.remaining = app.kernels;
      app.base = allocate_slots(app.kernels);
      app.edges = dag.edge_count();
      app.edge_base = allocate_edges(app.edges);
      app.transfers.clear();
      app.hedges.clear();
      resolve_costs(app, dag);
      write_structure(app, dag);
    }
    if (keep_dags_) app.owned = std::move(owned);

    for (dag::NodeId local = 0; local < app.kernels; ++local) {
      const dag::NodeId slot = app.base + local;
      NodeState& ns = node_state_[slot];
      const std::uint32_t epoch = ns.epoch + 1;  // retire any dead events
      ns = NodeState{};
      ns.epoch = epoch;
      ns.record.node = local;
      ns.app = app_slot;
      const Adjacency& adj = adjacency_[slot];
      ns.remaining_preds = adj.pred_end - adj.pred_begin;
      if (hedging_) hedge_[slot] = HedgeState{};
      if (contended_) comm_[slot] = CommState{};
      if (ns.remaining_preds == 0) {
        const sim::TimeMs release = arrival_ms + release_slab_[slot];
        if (release <= now_) {
          mark_ready(slot);
        } else {
          releases_.push(Event{release, slot});
        }
      }
    }
    ++live_count_;
  }

  /// Fills the per-slot cost slabs of a just-placed instance — one
  /// exec_row_ms per kernel, written straight into its slots, plus the
  /// row's minimum and lowest argmin — then, in open runs, the lower bound
  /// from those minima.
  void resolve_costs(App& app, const dag::Dag& dag) {
    const std::vector<sim::Processor>& procs = system_.processors();
    for (dag::NodeId local = 0; local < dag.node_count(); ++local) {
      const dag::NodeId slot = app.base + local;
      sim::TimeMs* row = exec_slab_.data() + slot * proc_count_;
      base_cost_.exec_row_ms(dag, local, procs, row);
      sim::TimeMs best = row[0];
      sim::ProcId best_proc = 0;
      for (sim::ProcId p = 1; p < proc_count_; ++p) {
        if (row[p] < best) {
          best = row[p];
          best_proc = p;
        }
      }
      min_exec_slab_[slot] = best;
      min_proc_slab_[slot] = best_proc;
    }
    if (!closed_)
      app.lower_bound_ms = sim::makespan_lower_bound_ms(
          dag, system_, min_exec_slab_.data() + app.base,
          lower_bound_scratch_);
  }

  /// Writes the slot-indexed structure of a just-placed instance: each
  /// slot's predecessor range (producer slot and the edge's weight under
  /// cost_, which pair tables price), its successor range, and its release
  /// offset. Every later structural read comes from these.
  void write_structure(const App& app, const dag::Dag& dag) {
    std::uint32_t pred_edge = app.edge_base;
    std::uint32_t succ_edge = app.edge_base;
    for (dag::NodeId local = 0; local < app.kernels; ++local) {
      const dag::NodeId slot = app.base + local;
      Adjacency& adj = adjacency_[slot];
      adj.pred_begin = pred_edge;
      for (const dag::NodeId pred : dag.predecessors(local)) {
        pred_slot_[pred_edge] = app.base + pred;
        pred_weight_[pred_edge] = cost_->edge_weight(dag, pred, local);
        ++pred_edge;
      }
      adj.pred_end = pred_edge;
      adj.succ_begin = succ_edge;
      for (const dag::NodeId succ : dag.successors(local))
        succ_slot_[succ_edge++] = app.base + succ;
      adj.succ_end = succ_edge;
      release_slab_[slot] = dag.node(local).release_ms;
    }
  }

  const sim::System& system_;
  const sim::CostModel& base_cost_;
  const DagSource* const source_;  ///< open runs only
  const dag::Dag* const closed_;   ///< a closed run's graph; null when open
  const StreamOptions& options_;
  sim::Policy& policy_;

  /// Contended-topology comm phase (tm_ engaged only when contended_).
  const net::Topology& topology_;
  const bool contended_;
  const bool hedging_;  ///< options_.hedging.enabled
  const std::size_t proc_count_;
  /// Rolling realized/nominal inflation ratios of completed kernels — the
  /// bounded-memory sample the hedging threshold quantile is drawn from
  /// (platform-wide, across application instances).
  util::RollingQuantile hedge_window_;
  /// An open run keeps each instance's graph past admission only for a
  /// recorded schedule or a trace sink's kernel names.
  const bool keep_dags_;
  /// Observability taps (null = disabled; every use is null-guarded).
  obs::TraceSink* const sink_;
  obs::Profile* const profile_;
  std::optional<net::TransferManager> tm_;
  std::optional<sim::TopologyCostModel> topo_cost_;
  /// What policies and transfer stalls price against: topo_cost_ on a
  /// contended fabric, the base model otherwise.
  const sim::CostModel* cost_ = nullptr;
  /// cost_'s pair tables: every engine-side edge price is one read.
  sim::PairTables prices_;
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
  // Every slot- and edge-indexed array is a util::PodArray: they are as
  // deep as the live backlog and only grow, and growing one in place
  // (realloc) spares admission the copy and page faults of a new block.
  util::PodArray<NodeState> node_state_;  ///< global slot arrays
  /// Cold per-slot tables, grown with node_state_ and reset by place();
  /// each stays empty unless its feature is on, and only then is read.
  util::PodArray<HedgeState> hedge_;  ///< hedging_ only
  util::PodArray<CommState> comm_;    ///< contended_ only
  std::vector<ProcState> proc_state_;

  // Per-slot SoA cost slabs (grown with node_state_, refilled per admit):
  // the policy-facing queries read these instead of chasing app pointers.
  util::PodArray<sim::TimeMs> exec_slab_;      ///< [slot * P + proc] exec
  util::PodArray<sim::TimeMs> min_exec_slab_;  ///< [slot] min exec time
  util::PodArray<sim::ProcId> min_proc_slab_;  ///< [slot] lowest argmin

  // Per-slot structure (CSR, grown with node_state_, refilled per admit).
  util::PodArray<Adjacency> adjacency_;       ///< [slot] edge-slab ranges
  util::PodArray<sim::TimeMs> release_slab_;  ///< [slot] offset from arrival

  // Edge slabs, one range per live instance.
  util::PodArray<dag::NodeId> pred_slot_;  ///< [edge] producer slot
  util::PodArray<double> pred_weight_;     ///< [edge] cost_->edge_weight
  util::PodArray<dag::NodeId> succ_slot_;  ///< [edge] consumer slot

  RangeAllocator slots_;  ///< slot ranges of the live instances
  RangeAllocator edges_;  ///< edge-slab ranges of the live instances
  sim::LowerBoundScratch lower_bound_scratch_;  ///< open runs' admissions

  std::vector<App> apps_;  ///< reusable instance table (value slots)
  std::vector<std::uint32_t> free_app_slots_;
  std::size_t live_count_ = 0;

  /// Ready slots in arrival order. Mutable because the first ready() read
  /// switches it to in-place removal.
  mutable sim::ReadySet ready_;

  /// Cached available set, rebuilt on demand after processor-state changes.
  mutable std::vector<sim::ProcId> idle_cache_;
  mutable bool idle_dirty_ = true;
  /// transfer_estimates' per-processor worst-input producer, reused.
  mutable std::vector<sim::ProcId> worst_from_;
  /// A processor may be free with a non-empty queue: drain_queues() scans.
  bool drain_due_ = false;

  EventQueue events_;    ///< kernel completions, replica races, hedge checks
  EventQueue releases_;  ///< future release instants (arrival + offset)
  std::optional<ArrivalProcess> arrivals_;  ///< open runs only
  std::optional<sim::TimeMs> next_arrival_;

  sim::StreamObservation observation_;
  std::vector<StreamAppSchedule> schedules_;
  sim::SimResult closed_result_;  ///< a closed run's one schedule
};

}  // namespace

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
  EventCore core(system_, base_cost_, options_, policy, &source_, nullptr);
  // The same lifecycle every policy sees in a closed run; the DAG is empty
  // because instances only materialize as they arrive. prepare() receives
  // the core's own cost model (topology-priced under a contended fabric),
  // so a policy that caches the reference sees the same object
  // SchedulerContext::cost_model() later returns.
  const dag::Dag no_dag;
  policy.prepare(no_dag, system_, core.cost_model());
  return core.run_open();
}

namespace detail {

sim::SimResult run_closed(const dag::Dag& dag, const sim::System& system,
                          const sim::CostModel& cost,
                          const sim::EngineOptions& options,
                          sim::Policy& policy) {
  StreamOptions closed;
  closed.record_schedules = true;
  closed.noise = options.noise;
  closed.hedging = options.hedging;
  closed.sink = options.sink;
  closed.profile = options.profile;
  EventCore core(system, cost, closed, policy, nullptr, &dag);
  // prepare() runs even for an empty DAG so every policy sees the same
  // lifecycle regardless of input.
  policy.prepare(dag, system, core.cost_model());
  if (dag.empty()) return sim::SimResult{};
  return core.run_closed();
}

}  // namespace detail

}  // namespace apt::stream
