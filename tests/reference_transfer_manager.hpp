// Test-only reference: net::TransferManager as it ran before the rate
// solver shared one progressive-filling loop over the occupied links,
// memoized link_drain_ms, and read the topology's per-pair route tables.
// Everything below is the old class and its source word for word, except
// that it is renamed, header-only (definitions marked inline), and keeps
// its own process-wide default solve mode and completion tolerance; it
// shares only the Delivery and SolveStats types. start() sums the route's
// per-hop latencies itself, as the old Topology::route_latency_ms did, so
// the reference reads no precomputed pair table. The lockstep suite
// (test_tm_incremental) and the frozen closed engine
// (reference_closed_engine.hpp) run against it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "obs/profile.hpp"
#include "util/contracts.hpp"

namespace apt::test {
namespace reference_tm {

using net::Delivery;
using net::LinkId;
using net::ProcId;
using net::SolveStats;
using net::TimeMs;
using net::Topology;

/// The drain loop's completion tolerance, as it was frozen.
inline double done_eps(double bytes) {
  return bytes * 1e-12 > 1e-6 ? bytes * 1e-12 : 1e-6;
}

inline constexpr TimeMs kInf = std::numeric_limits<TimeMs>::infinity();

/// Wall-clock milliseconds since `start` (profiling only).
inline double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Below this many active flows the closure bookkeeping costs more than the
/// full solve it would avoid.
inline constexpr std::size_t kSmallSolve = 16;

class ReferenceTransferManager {
 public:
  /// Auto runs the incremental component re-solve with a full-solve
  /// fallback; FullAlways forces the full solve at every membership event.
  /// Both produce bit-identical rates — FullAlways exists so equivalence
  /// tests (and suspicious users) can diff the two paths end to end.
  enum class SolveMode { Auto, FullAlways };

  /// Process-wide default mode picked up by every subsequently constructed
  /// manager — the hook tests use to force FullAlways inside engines that
  /// construct their TransferManager internally. Not synchronized with
  /// running managers; set it before the runs under test.
  static void set_default_solve_mode(SolveMode mode) noexcept;
  static SolveMode default_solve_mode() noexcept;
  /// The topology must outlive the manager and be contended() — an ideal
  /// topology has no links to simulate (std::invalid_argument).
  explicit ReferenceTransferManager(const Topology& topology);

  const Topology& topology() const noexcept { return topology_; }

  /// Start of the observation window for the *_in_window accounting
  /// (steady-state metrics exclude warmup). Defaults to 0 (everything
  /// observed); must be set before the first message starts.
  void set_window_start(TimeMs start);

  /// Schedules a message of `bytes` from -> to, entering its route at
  /// `at_time` + the route's head latency. `at_time` may lie in the future
  /// — the activation is itself a progress event. The pair must not be
  /// local (std::invalid_argument) and `at_time` must not precede the last
  /// advance_to() instant. `tag` is returned verbatim with the delivery;
  /// callers use it to find the waiting kernel.
  void start(std::uint64_t tag, double bytes, ProcId from, ProcId to,
             TimeMs at_time);

  /// True while any message is pending activation or draining.
  bool busy() const noexcept { return live_count_ > 0; }

  /// Earliest instant at which a message activates or delivers (+infinity
  /// when idle). The engines merge this into their event clocks.
  TimeMs next_event_ms() const;

  /// Advances the shared-progress simulation to `t` (>= the previous call),
  /// returning every message delivered at or before `t`, ascending by tag.
  std::vector<Delivery> advance_to(TimeMs t);

  /// Allocation-free variant for the engine hot loops: clears `out` and
  /// fills it with the same deliveries advance_to(t) would return. The
  /// caller owns the buffer and reuses it across events, so the per-event
  /// vector churn disappears; capacity is only ever grown.
  void advance_to(TimeMs t, std::vector<Delivery>& out);

  /// Cumulative rate-solver counters for this manager (never reset).
  const SolveStats& solve_stats() const noexcept { return solve_stats_; }

  /// Attaches a hot-path profile (src/obs) that the rate solver stamps
  /// with its full/incremental wall-clock split. Null (the default)
  /// disables the clock reads entirely; simulation results are unaffected
  /// either way. The profile must outlive the manager.
  void set_profile(obs::Profile* profile) noexcept { profile_ = profile; }

  // --- backlog prediction (the policy-facing estimation surface) -------------
  //
  // These queries feed sim::TransferEstimate: the schedulers ask "if I sent
  // one more message over this route now, how long until the traffic already
  // occupying it gets out of the way?" under the CURRENT max-min allocation.

  /// Predicted time (ms from the last advance_to instant) until every
  /// message currently draining over `link` finishes, at today's rates: the
  /// max over the link's active flows of their projected remaining time
  /// (anchor + remaining/rate − now, the exact projection the delivery heap
  /// holds). 0 for an idle link. Messages still inside their route head
  /// latency (scheduled but not yet activated) are not counted — they exist
  /// only within that latency window and hold no link share yet.
  TimeMs link_drain_ms(LinkId link) const;

  /// Active (draining) messages currently occupying `link`.
  std::size_t link_flow_count(LinkId link) const {
    return link_flows_.at(link).size();
  }

  /// Messages pending activation or draining anywhere in the fabric.
  std::size_t live_count() const noexcept { return live_count_; }

  // --- per-link accounting (for metrics) -------------------------------------
  //
  // A multi-hop message counts fully against every link of its route (it
  // occupies them all while draining). The plain accessors cover the whole
  // run; the *_in_window variants clip busy time to [window_start, ...) and
  // count only messages delivered at or after the window start — the
  // warmup-free numbers steady-state link utilization must be computed
  // from. Only meaningful once the fabric is idle (!busy()).

  /// Time each link spent with at least one draining message.
  const std::vector<TimeMs>& link_busy_ms() const noexcept {
    return link_busy_ms_;
  }
  const std::vector<TimeMs>& link_busy_in_window_ms() const noexcept {
    return link_busy_in_window_ms_;
  }
  /// Bytes delivered over each link.
  const std::vector<double>& link_delivered_bytes() const noexcept {
    return link_delivered_bytes_;
  }
  const std::vector<double>& link_bytes_in_window() const noexcept {
    return link_bytes_in_window_;
  }
  /// Messages delivered over each link.
  const std::vector<std::size_t>& link_delivered_counts() const noexcept {
    return link_delivered_counts_;
  }
  const std::vector<std::size_t>& link_counts_in_window() const noexcept {
    return link_counts_in_window_;
  }
  /// Sum of route hop counts of the messages delivered over each link
  /// (divide by the count for the mean — 1 on single-hop kinds).
  const std::vector<std::size_t>& link_hops_in_window() const noexcept {
    return link_hops_in_window_;
  }
  std::size_t started_count() const noexcept { return started_count_; }
  std::size_t delivered_count() const noexcept { return delivered_count_; }

 private:
  struct Message {
    std::uint64_t tag = 0;
    double bytes = 0.0;
    double remaining = 0.0;
    double rate_ms = 0.0;   ///< bytes per ms under the current allocation
    TimeMs anchor_ms = 0.0;  ///< instant `remaining` refers to
    TimeMs activates_ms = 0.0;  ///< joins the route here (start + latency)
    std::uint64_t stamp = 0;    ///< invalidates superseded heap projections
    std::uint64_t solve_round = 0;  ///< frozen marker of the rate solver
    bool active = false;
    std::vector<LinkId> path;         ///< route links (reused with the slot)
    std::vector<std::size_t> link_pos;  ///< position in link_flows_[path[i]]
  };

  /// Min-heap entry; `stamp` must match the slot's message for the entry
  /// to still be meaningful (projections are superseded, never erased).
  struct HeapEntry {
    TimeMs time;
    std::size_t slot;
    std::uint64_t stamp;

    bool operator>(const HeapEntry& other) const noexcept {
      return time > other.time;
    }
  };
  using EventHeap =
      std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                          std::greater<HeapEntry>>;

  void prune_stale_projections() const;
  void activate(std::size_t slot, TimeMs at);
  void deliver(std::size_t slot, TimeMs at, std::vector<Delivery>& out);
  void mark_dirty(const std::vector<LinkId>& path);
  void resolve_rates(TimeMs at);
  void resolve_rates_full(TimeMs at);
  void resolve_rates_incremental(TimeMs at);
  void freeze_flow(std::size_t slot, double rate, TimeMs at);
#ifndef NDEBUG
  void verify_incremental_solve(TimeMs at);
#endif

  const Topology& topology_;
  std::vector<Message> messages_;  ///< slot arena, slots reused
  std::vector<std::size_t> free_slots_;
  std::vector<std::vector<std::size_t>> link_flows_;  ///< [link] -> slots

  EventHeap activations_;           ///< pending messages by activation time
  mutable EventHeap projections_;   ///< active messages by projected finish
                                    ///< (mutable: lazy pruning from const
                                    ///< next_event_ms)

  // Rate-solver scratch, sized once ([link]).
  std::vector<double> solve_cap_;
  std::vector<std::size_t> solve_unfrozen_;
  std::uint64_t solve_round_ = 0;

  // Incremental-solver state. dirty_links_ collects the links whose
  // membership changed since the last solve; the mark arrays (stamped by
  // mark_round_ so they never need clearing) track which links/flows the
  // component closure has absorbed; solve_links_ is the sorted dirty
  // component the restricted filling runs over.
  SolveMode solve_mode_;
  std::vector<LinkId> dirty_links_;
  std::vector<std::uint64_t> link_mark_;   ///< [link] closure stamp
  std::vector<std::uint64_t> flow_mark_;   ///< [slot] closure stamp
  std::uint64_t mark_round_ = 0;
  std::vector<LinkId> solve_links_;        ///< dirty component, ascending
  std::vector<LinkId> closure_stack_;
  SolveStats solve_stats_;
  obs::Profile* profile_ = nullptr;  ///< optional solver wall-clock timing

  // Busy intervals fold as link occupancy transitions 0 <-> >0.
  std::vector<std::size_t> link_active_count_;
  std::vector<TimeMs> link_busy_since_;
  std::vector<TimeMs> link_busy_ms_;
  std::vector<TimeMs> link_busy_in_window_ms_;
  std::vector<double> link_delivered_bytes_;
  std::vector<double> link_bytes_in_window_;
  std::vector<std::size_t> link_delivered_counts_;
  std::vector<std::size_t> link_counts_in_window_;
  std::vector<std::size_t> link_hops_in_window_;

  TimeMs window_start_ = 0.0;
  TimeMs now_ = 0.0;
  std::size_t active_flow_count_ = 0;  ///< activated and not yet delivered
  std::size_t live_count_ = 0;
  std::size_t started_count_ = 0;
  std::size_t delivered_count_ = 0;
};

inline std::atomic<ReferenceTransferManager::SolveMode> g_default_solve_mode{
    ReferenceTransferManager::SolveMode::Auto};

inline void ReferenceTransferManager::set_default_solve_mode(
    SolveMode mode) noexcept {
  g_default_solve_mode.store(mode, std::memory_order_relaxed);
}

inline ReferenceTransferManager::SolveMode
ReferenceTransferManager::default_solve_mode() noexcept {
  return g_default_solve_mode.load(std::memory_order_relaxed);
}

inline ReferenceTransferManager::ReferenceTransferManager(
    const Topology& topology)
    : topology_(topology), solve_mode_(default_solve_mode()) {
  if (!topology_.contended())
    throw std::invalid_argument(
        "TransferManager: an ideal topology has no links to simulate");
  const std::size_t links = topology_.link_count();
  link_flows_.resize(links);
  solve_cap_.assign(links, 0.0);
  solve_unfrozen_.assign(links, 0);
  link_mark_.assign(links, 0);
  dirty_links_.reserve(16);
  solve_links_.reserve(16);
  closure_stack_.reserve(16);
  link_active_count_.assign(links, 0);
  link_busy_since_.assign(links, 0.0);
  link_busy_ms_.assign(links, 0.0);
  link_busy_in_window_ms_.assign(links, 0.0);
  link_delivered_bytes_.assign(links, 0.0);
  link_bytes_in_window_.assign(links, 0.0);
  link_delivered_counts_.assign(links, 0);
  link_counts_in_window_.assign(links, 0);
  link_hops_in_window_.assign(links, 0);
}

inline void ReferenceTransferManager::set_window_start(TimeMs start) {
  if (start < 0.0)
    throw std::invalid_argument(
        "TransferManager: window start must be >= 0");
  if (started_count_ > 0)
    throw std::logic_error(
        "TransferManager: the observation window must be set before the "
        "first message starts");
  window_start_ = start;
}

inline void ReferenceTransferManager::start(std::uint64_t tag, double bytes,
                                            ProcId from, ProcId to,
                                            TimeMs at_time) {
  if (bytes < 0.0)
    throw std::invalid_argument("TransferManager: negative byte count");
  if (at_time < now_)
    throw std::invalid_argument(
        "TransferManager: messages cannot start in the past");
  const Topology::Route route = topology_.route(from, to);
  if (route.empty())
    throw std::invalid_argument(
        "TransferManager: the processor pair is local — no message needed");

  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = messages_.size();
    messages_.emplace_back();
  }
  // Slots are reused: every field is reassigned except `stamp`, which must
  // keep growing so heap projections of the previous occupant stay stale.
  Message& m = messages_[slot];
  m.tag = tag;
  m.bytes = bytes;
  m.remaining = bytes;
  m.rate_ms = 0.0;
  m.anchor_ms = at_time;
  TimeMs latency = 0.0;
  for (const LinkId l : route) latency += topology_.latency_ms(l);
  m.activates_ms = at_time + latency;
  m.solve_round = 0;
  m.active = false;
  m.path.assign(route.begin(), route.end());
  m.link_pos.assign(m.path.size(), 0);
  activations_.push(HeapEntry{m.activates_ms, slot, m.stamp});
  ++live_count_;
  ++started_count_;
}

inline void ReferenceTransferManager::prune_stale_projections() const {
  while (!projections_.empty()) {
    const HeapEntry& top = projections_.top();
    if (messages_[top.slot].stamp == top.stamp) return;
    projections_.pop();
  }
}

inline TimeMs ReferenceTransferManager::next_event_ms() const {
  prune_stale_projections();
  TimeMs t = kInf;
  if (!activations_.empty()) t = activations_.top().time;
  if (!projections_.empty()) t = std::min(t, projections_.top().time);
  return t;
}

inline void ReferenceTransferManager::activate(std::size_t slot, TimeMs at) {
  Message& m = messages_[slot];
  m.active = true;
  m.anchor_ms = at;
  for (std::size_t hop = 0; hop < m.path.size(); ++hop) {
    const LinkId l = m.path[hop];
    m.link_pos[hop] = link_flows_[l].size();
    link_flows_[l].push_back(slot);
    if (link_active_count_[l]++ == 0) link_busy_since_[l] = at;
  }
  mark_dirty(m.path);
  ++active_flow_count_;
}

inline void ReferenceTransferManager::deliver(std::size_t slot, TimeMs at,
                                              std::vector<Delivery>& out) {
  Message& m = messages_[slot];
  const bool in_window = at >= window_start_;
  for (std::size_t hop = 0; hop < m.path.size(); ++hop) {
    const LinkId l = m.path[hop];
    // Swap-remove from the link's flow list; the displaced flow learns its
    // new position (routes are simple paths, so it holds `l` exactly once).
    std::vector<std::size_t>& flows = link_flows_[l];
    const std::size_t pos = m.link_pos[hop];
    const std::size_t moved = flows.back();
    flows[pos] = moved;
    flows.pop_back();
    if (pos < flows.size()) {
      Message& other = messages_[moved];
      for (std::size_t j = 0; j < other.path.size(); ++j) {
        if (other.path[j] == l) {
          other.link_pos[j] = pos;
          break;
        }
      }
    }
    if (--link_active_count_[l] == 0) {
      link_busy_ms_[l] += at - link_busy_since_[l];
      const TimeMs from = std::max(link_busy_since_[l], window_start_);
      if (at > from) link_busy_in_window_ms_[l] += at - from;
    }
    link_delivered_bytes_[l] += m.bytes;
    ++link_delivered_counts_[l];
    if (in_window) {
      link_bytes_in_window_[l] += m.bytes;
      ++link_counts_in_window_[l];
      link_hops_in_window_[l] += m.path.size();
    }
  }
  mark_dirty(m.path);
  out.push_back(Delivery{m.tag, m.bytes, m.path.size(), at});
  ++m.stamp;  // any leftover projection of this slot is now stale
  m.active = false;
  free_slots_.push_back(slot);
  --active_flow_count_;
  --live_count_;
  ++delivered_count_;
}

/// Applies one solved rate: re-anchors the remainder at `at` under the old
/// rate, then projects the finish under the new one. A flow whose rate did
/// not change keeps its anchor and its existing (still exact) projection.
inline void ReferenceTransferManager::freeze_flow(std::size_t slot,
                                                  double rate, TimeMs at) {
  Message& m = messages_[slot];
  m.solve_round = solve_round_;
  if (m.rate_ms == rate) return;
  if (m.rate_ms > 0.0 && at > m.anchor_ms) {
    m.remaining -= m.rate_ms * (at - m.anchor_ms);
    if (m.remaining < 0.0) m.remaining = 0.0;
  }
  m.anchor_ms = at;
  m.rate_ms = rate;
  // Ripe within tolerance — or so close that the projection cannot even
  // advance the double-precision clock — delivers at this very instant;
  // the event loop picks the projection up before time moves again.
  TimeMs finish = at;
  if (m.remaining > done_eps(m.bytes)) {
    finish = at + m.remaining / rate;
    if (!(finish > at)) finish = at;
  }
  projections_.push(HeapEntry{finish, slot, ++m.stamp});
}

inline void ReferenceTransferManager::mark_dirty(
    const std::vector<LinkId>& path) {
  dirty_links_.insert(dirty_links_.end(), path.begin(), path.end());
}

/// Max-min fair allocation by progressive filling: raise every flow's rate
/// together until a link saturates, freeze that link's flows at the
/// saturation level, remove their share, repeat. A flow's rate is the
/// level of its bottleneck link; on a single link this is exactly the
/// equal split bandwidth / n. Runs at every membership event. This is the
/// dispatcher: small fabrics and FullAlways mode run the full solve;
/// otherwise the link<->flow component around the dirty links is closed
/// and, unless it swallowed most of the active flows (fallback), the
/// filling is restricted to that component. Iteration order is fixed
/// either way (ascending link id, then the link's flow list), so the
/// arithmetic is deterministic — and, per the header's component-
/// independence argument, bit-identical between the two paths.
inline void ReferenceTransferManager::resolve_rates(TimeMs at) {
  ++solve_round_;
  if (active_flow_count_ == 0) {
    dirty_links_.clear();
    return;
  }
  solve_stats_.flows_active += active_flow_count_;
  // Timed by hand rather than with ScopedTimer: which bucket a solve
  // lands in (full vs incremental) is only known at the exit taken, and
  // the fallback's closure work belongs to the full-solve bucket it pays
  // for. No clock read when no profile is attached.
  const auto solve_start = profile_
                               ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  if (solve_mode_ == SolveMode::FullAlways ||
      active_flow_count_ < kSmallSolve) {
    dirty_links_.clear();
    resolve_rates_full(at);
    ++solve_stats_.full_solves;
    solve_stats_.flows_resolved += active_flow_count_;
    if (profile_)
      profile_->record(obs::Timer::kTmSolveFull, ms_since(solve_start));
    return;
  }

  // Close the component: every link reachable from a dirty link through
  // shared flows, and every flow on those links. Marks are stamped with
  // mark_round_ so the arrays never need clearing.
  ++mark_round_;
  if (flow_mark_.size() < messages_.size())
    flow_mark_.resize(messages_.size(), 0);
  closure_stack_.clear();
  solve_links_.clear();
  auto push_link = [this](LinkId l) {
    if (link_mark_[l] == mark_round_) return;
    link_mark_[l] = mark_round_;
    if (!link_flows_[l].empty()) {
      closure_stack_.push_back(l);
      solve_links_.push_back(l);
    }
  };
  for (const LinkId l : dirty_links_) push_link(l);
  dirty_links_.clear();
  std::size_t component_flows = 0;
  bool fallback = false;
  for (std::size_t i = 0; i < closure_stack_.size() && !fallback; ++i) {
    for (const std::size_t slot : link_flows_[closure_stack_[i]]) {
      if (flow_mark_[slot] == mark_round_) continue;
      flow_mark_[slot] = mark_round_;
      ++component_flows;
      for (const LinkId hop : messages_[slot].path) push_link(hop);
    }
    // Once the component holds most of the flows the restricted fill
    // costs as much as the full one — stop closing and fall back.
    if (component_flows * 2 > active_flow_count_) fallback = true;
  }
  if (fallback) {
    resolve_rates_full(at);
    ++solve_stats_.full_solves;
    ++solve_stats_.fallback_solves;
    solve_stats_.flows_resolved += active_flow_count_;
    if (profile_)
      profile_->record(obs::Timer::kTmSolveFull, ms_since(solve_start));
    return;
  }

  std::sort(solve_links_.begin(), solve_links_.end());
  std::size_t unfrozen_total = component_flows;
  for (const LinkId l : solve_links_) {
    solve_cap_[l] = topology_.bandwidth_gbps(l) * 1e6;
    solve_unfrozen_[l] = link_flows_[l].size();
  }
  while (unfrozen_total > 0) {
    double level = kInf;
    for (const LinkId l : solve_links_) {
      if (solve_unfrozen_[l] == 0) continue;
      level = std::min(
          level, solve_cap_[l] / static_cast<double>(solve_unfrozen_[l]));
    }
    if (!(level > 0.0)) level = 1e-6;
    for (const LinkId l : solve_links_) {
      if (solve_unfrozen_[l] == 0) continue;
      if (solve_cap_[l] / static_cast<double>(solve_unfrozen_[l]) > level)
        continue;
      for (const std::size_t slot : link_flows_[l]) {
        Message& m = messages_[slot];
        if (m.solve_round == solve_round_) continue;  // frozen already
        for (const LinkId hop : m.path) {
          solve_cap_[hop] -= level;
          if (solve_cap_[hop] < 0.0) solve_cap_[hop] = 0.0;
          --solve_unfrozen_[hop];
        }
        freeze_flow(slot, level, at);
        --unfrozen_total;
      }
    }
  }
  ++solve_stats_.incremental_solves;
  solve_stats_.flows_resolved += component_flows;
  // Recorded before the debug cross-check: the verify pass is a test
  // artifact, not solver cost.
  if (profile_)
    profile_->record(obs::Timer::kTmSolveIncremental, ms_since(solve_start));
#ifndef NDEBUG
  verify_incremental_solve(at);
#endif
}

/// The legacy whole-fabric solve. Untouched arithmetic: every golden value
/// in the test suite was produced by exactly this loop.
inline void ReferenceTransferManager::resolve_rates_full(TimeMs at) {
  std::size_t unfrozen_total = active_flow_count_;
  const std::size_t links = link_flows_.size();
  for (std::size_t l = 0; l < links; ++l) {
    if (link_flows_[l].empty()) continue;
    solve_cap_[l] = topology_.bandwidth_gbps(static_cast<LinkId>(l)) * 1e6;
    solve_unfrozen_[l] = link_flows_[l].size();
  }
  while (unfrozen_total > 0) {
    double level = kInf;
    for (std::size_t l = 0; l < links; ++l) {
      if (link_flows_[l].empty() || solve_unfrozen_[l] == 0) continue;
      level = std::min(
          level, solve_cap_[l] / static_cast<double>(solve_unfrozen_[l]));
    }
    // Exact arithmetic keeps every unfrozen link's level positive; only
    // float drift of the cascading subtractions could break that, and a
    // zero rate would stall the event loop — floor it instead. The freeze
    // pass below matches with <=, so a drift-flattened link (ratio 0 <
    // floored level) still freezes and the loop always terminates.
    if (!(level > 0.0)) level = 1e-6;
    for (std::size_t l = 0; l < links; ++l) {
      if (link_flows_[l].empty() || solve_unfrozen_[l] == 0) continue;
      // The argmin links compare exactly equal; drifted-below ones (see
      // the floor above, or caps nudged by an earlier freeze this round)
      // must freeze too or the round could freeze nothing.
      if (solve_cap_[l] / static_cast<double>(solve_unfrozen_[l]) > level)
        continue;
      for (const std::size_t slot : link_flows_[l]) {
        Message& m = messages_[slot];
        if (m.solve_round == solve_round_) continue;  // frozen already
        for (const LinkId hop : m.path) {
          solve_cap_[hop] -= level;
          if (solve_cap_[hop] < 0.0) solve_cap_[hop] = 0.0;
          --solve_unfrozen_[hop];
        }
        freeze_flow(slot, level, at);
        --unfrozen_total;
      }
    }
  }
}

#ifndef NDEBUG
/// Debug-build cross-check: after an incremental solve, a full re-solve at
/// the same instant must leave every rate untouched (freeze_flow with an
/// equal rate is a no-op, so a passing check perturbs nothing observable).
inline void ReferenceTransferManager::verify_incremental_solve(TimeMs at) {
  std::vector<std::pair<std::size_t, double>> before;
  before.reserve(active_flow_count_);
  for (std::size_t slot = 0; slot < messages_.size(); ++slot) {
    if (messages_[slot].active)
      before.emplace_back(slot, messages_[slot].rate_ms);
  }
  ++solve_round_;
  resolve_rates_full(at);
  for (const auto& [slot, rate] : before) {
    APT_ASSERT(messages_[slot].rate_ms == rate,
               "incremental max-min solve diverged from the full solve: "
               "flow slot %zu re-solved to %.17g MB/ms at t=%.17g, "
               "incremental had %.17g",
               slot, messages_[slot].rate_ms, at, rate);
  }
}
#endif

inline TimeMs ReferenceTransferManager::link_drain_ms(LinkId link) const {
  TimeMs drain = 0.0;
  for (const std::size_t slot : link_flows_.at(link)) {
    const Message& m = messages_[slot];
    if (!(m.rate_ms > 0.0)) continue;
    // The same piecewise-linear projection freeze_flow pushed on the heap;
    // clamped because a ripe-within-tolerance flow can project at now_.
    const TimeMs remaining_ms = m.anchor_ms + m.remaining / m.rate_ms - now_;
    if (remaining_ms > drain) drain = remaining_ms;
  }
  return drain;
}

inline std::vector<Delivery> ReferenceTransferManager::advance_to(TimeMs t) {
  std::vector<Delivery> out;
  advance_to(t, out);
  return out;
}

inline void ReferenceTransferManager::advance_to(TimeMs t,
                                                 std::vector<Delivery>& out) {
  if (t < now_)
    throw std::invalid_argument("TransferManager: time must not go backwards");
  out.clear();
  for (;;) {
    const TimeMs e = next_event_ms();
    if (!(e <= t)) break;
    bool membership_changed = false;
    prune_stale_projections();
    while (!projections_.empty() && projections_.top().time <= e) {
      const HeapEntry entry = projections_.top();
      projections_.pop();
      deliver(entry.slot, e, out);
      membership_changed = true;
      prune_stale_projections();
    }
    while (!activations_.empty() && activations_.top().time <= e) {
      const HeapEntry entry = activations_.top();
      activations_.pop();
      activate(entry.slot, e);
      membership_changed = true;
    }
    if (membership_changed) resolve_rates(e);
    now_ = e;
  }
  if (t > now_) now_ = t;
  std::sort(out.begin(), out.end(),
            [](const Delivery& a, const Delivery& b) { return a.tag < b.tag; });
}

}  // namespace reference_tm

using reference_tm::ReferenceTransferManager;

}  // namespace apt::test
