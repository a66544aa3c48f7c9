#include "net/transfer_manager.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/profile.hpp"
#include "util/contracts.hpp"

namespace apt::net {

namespace {
constexpr TimeMs kInf = std::numeric_limits<TimeMs>::infinity();

/// Wall-clock milliseconds since `start` (profiling only).
double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::atomic<TransferManager::SolveMode> g_default_solve_mode{
    TransferManager::SolveMode::Auto};

/// Below this many active flows the closure bookkeeping costs more than the
/// full solve it would avoid.
constexpr std::size_t kSmallSolve = 16;
}  // namespace

void TransferManager::set_default_solve_mode(SolveMode mode) noexcept {
  g_default_solve_mode.store(mode, std::memory_order_relaxed);
}

TransferManager::SolveMode TransferManager::default_solve_mode() noexcept {
  return g_default_solve_mode.load(std::memory_order_relaxed);
}

TransferManager::TransferManager(const Topology& topology)
    : topology_(topology), solve_mode_(default_solve_mode()) {
  if (!topology_.contended())
    throw std::invalid_argument(
        "TransferManager: an ideal topology has no links to simulate");
  const std::size_t links = topology_.link_count();
  link_flows_.resize(links);
  link_cap_.resize(links);
  for (std::size_t l = 0; l < links; ++l)
    link_cap_[l] = topology_.bandwidth_gbps(static_cast<LinkId>(l)) * 1e6;
  occupied_links_.reserve(links);
  solve_cap_.assign(links, 0.0);
  solve_unfrozen_.assign(links, 0);
  fill_links_.reserve(links);
  drain_memo_.resize(links);
  link_mark_.assign(links, 0);
  dirty_links_.reserve(16);
  solve_links_.reserve(16);
  link_busy_since_.assign(links, 0.0);
  link_busy_ms_.assign(links, 0.0);
  link_busy_in_window_ms_.assign(links, 0.0);
  link_delivered_bytes_.assign(links, 0.0);
  link_bytes_in_window_.assign(links, 0.0);
  link_delivered_counts_.assign(links, 0);
  link_counts_in_window_.assign(links, 0);
  link_hops_in_window_.assign(links, 0);
}

void TransferManager::set_window_start(TimeMs start) {
  if (!std::isfinite(start) || start < 0.0)
    throw std::invalid_argument(
        "TransferManager: window start must be finite and >= 0");
  if (started_count_ > 0)
    throw std::logic_error(
        "TransferManager: the observation window must be set before the "
        "first message starts");
  window_start_ = start;
}

void TransferManager::start(std::uint64_t tag, double bytes, ProcId from,
                            ProcId to, TimeMs at_time) {
  if (!std::isfinite(bytes) || bytes < 0.0)
    throw std::invalid_argument(
        "TransferManager: byte count must be finite and >= 0");
  if (!std::isfinite(at_time) || at_time < now_)
    throw std::invalid_argument(
        "TransferManager: messages start at a finite time, never in the past");
  const Topology::Route route = topology_.route(from, to);
  if (route.empty())
    throw std::invalid_argument(
        "TransferManager: the processor pair is local — no message needed");
  // A huge but finite route latency can still overflow the sum.
  const TimeMs activates_ms = at_time + topology_.route_latency_ms(from, to);
  if (!std::isfinite(activates_ms))
    throw std::invalid_argument(
        "TransferManager: the message's activation instant overflows");

  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = messages_.size();
    messages_.emplace_back();
    projection_pos_.push_back(kNotProjected);
  }
  // Slots are reused: every field is reassigned. The previous occupant's
  // delivery popped its projection, so the slot enters the heap afresh.
  APT_ASSERT(projection_pos_[slot] == kNotProjected,
             "slot %zu reused while still projected", slot);
  Message& m = messages_[slot];
  m.tag = tag;
  m.bytes = bytes;
  m.remaining = bytes;
  m.rate_ms = 0.0;
  m.anchor_ms = at_time;
  m.activates_ms = activates_ms;
  m.solve_round = 0;
  m.active = false;
  m.path.assign(route.begin(), route.end());
  m.link_pos.assign(m.path.size(), 0);
  activations_.push(Activation{m.activates_ms, slot});
  ++live_count_;
  ++started_count_;
}

TimeMs TransferManager::next_event_ms() const {
  TimeMs t = kInf;
  if (!activations_.empty()) t = activations_.top().time;
  if (!projections_.empty()) t = std::min(t, projections_.front().finish);
  return t;
}

/// Moves the node at `pos` toward the root past every later parent.
void TransferManager::sift_up(std::size_t pos) {
  const Projection node = projections_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    const Projection& above = projections_[parent];
    if (!(node < above)) break;
    projections_[pos] = above;
    projection_pos_[above.slot] = pos;
    pos = parent;
  }
  projections_[pos] = node;
  projection_pos_[node.slot] = pos;
}

/// Moves the node at `pos` toward the leaves past every earlier child.
void TransferManager::sift_down(std::size_t pos) {
  const Projection node = projections_[pos];
  const std::size_t n = projections_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && projections_[child + 1] < projections_[child])
      ++child;
    const Projection& below = projections_[child];
    if (!(below < node)) break;
    projections_[pos] = below;
    projection_pos_[below.slot] = pos;
    pos = child;
  }
  projections_[pos] = node;
  projection_pos_[node.slot] = pos;
}

/// Inserts `slot`'s projected finish, or re-keys its node in place.
void TransferManager::project(std::size_t slot, TimeMs finish) {
  std::size_t pos = projection_pos_[slot];
  if (pos == kNotProjected) {
    pos = projections_.size();
    projections_.push_back(Projection{finish, slot});
    sift_up(pos);
    return;
  }
  const TimeMs before = projections_[pos].finish;
  projections_[pos].finish = finish;
  if (finish < before) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

/// Removes the earliest projection and returns its slot.
std::size_t TransferManager::pop_projection() {
  if (profile_) profile_->add(obs::Counter::kTmProjectionsPopped);
  const std::size_t slot = projections_.front().slot;
  projection_pos_[slot] = kNotProjected;
  const Projection last = projections_.back();
  projections_.pop_back();
  if (!projections_.empty()) {
    projections_.front() = last;
    sift_down(0);
  }
  return slot;
}

void TransferManager::activate(std::size_t slot, TimeMs at) {
  Message& m = messages_[slot];
  m.active = true;
  m.anchor_ms = at;
  for (std::size_t hop = 0; hop < m.path.size(); ++hop) {
    const LinkId l = m.path[hop];
    m.link_pos[hop] = link_flows_[l].size();
    link_flows_[l].push_back(slot);
    if (link_flows_[l].size() == 1) {
      link_busy_since_[l] = at;
      occupied_links_.insert(std::lower_bound(occupied_links_.begin(),
                                              occupied_links_.end(), l),
                             l);
    }
  }
  mark_dirty(m.path);
  ++active_flow_count_;
}

void TransferManager::deliver(std::size_t slot, TimeMs at,
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
    if (flows.empty()) {
      link_busy_ms_[l] += at - link_busy_since_[l];
      const TimeMs from = std::max(link_busy_since_[l], window_start_);
      if (at > from) link_busy_in_window_ms_[l] += at - from;
      occupied_links_.erase(std::lower_bound(occupied_links_.begin(),
                                             occupied_links_.end(), l));
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
  m.active = false;
  free_slots_.push_back(slot);
  --active_flow_count_;
  --live_count_;
  ++delivered_count_;
}

/// Applies one solved rate: re-anchors the remainder at `at` under the old
/// rate, then projects the finish under the new one. A flow whose rate did
/// not change keeps its anchor and its existing (still exact) projection.
void TransferManager::freeze_flow(std::size_t slot, double rate, TimeMs at) {
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
  project(slot, finish);
}

void TransferManager::mark_dirty(const std::vector<LinkId>& path) {
  dirty_links_.insert(dirty_links_.end(), path.begin(), path.end());
}

/// Max-min fair allocation by progressive filling: raise every flow's rate
/// together until a link saturates, freeze that link's flows at the
/// saturation level, remove their share, repeat. A flow's rate is the
/// level of its bottleneck link; on a single link this is exactly the
/// equal split bandwidth / n. Runs at every membership event. This is the
/// dispatcher: small solves and FullAlways mode fill over every occupied
/// link; otherwise the link<->flow component around the dirty links is
/// closed and, unless it swallowed most of the active flows (fallback),
/// the filling is restricted to that component. fill() fixes the
/// iteration order either way (ascending link id, then the link's flow
/// list), so the arithmetic is deterministic — and, per the header's
/// component-independence argument, bit-identical between the two paths.
void TransferManager::resolve_rates(TimeMs at) {
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
  bool full = solve_mode_ == SolveMode::FullAlways ||
              active_flow_count_ < kSmallSolve;
  std::size_t component_flows = 0;
  if (!full) {
    // Close the component: every link reachable from a dirty link through
    // shared flows, and every flow on those links. Marks carry
    // mark_round_ so the arrays never need clearing.
    ++mark_round_;
    if (flow_mark_.size() < messages_.size())
      flow_mark_.resize(messages_.size(), 0);
    solve_links_.clear();
    auto push_link = [this](LinkId l) {
      if (link_mark_[l] == mark_round_) return;
      link_mark_[l] = mark_round_;
      if (!link_flows_[l].empty()) solve_links_.push_back(l);
    };
    for (const LinkId l : dirty_links_) push_link(l);
    // solve_links_ doubles as the closure's work list.
    for (std::size_t i = 0; i < solve_links_.size() && !full; ++i) {
      for (const std::size_t slot : link_flows_[solve_links_[i]]) {
        if (flow_mark_[slot] == mark_round_) continue;
        flow_mark_[slot] = mark_round_;
        ++component_flows;
        for (const LinkId hop : messages_[slot].path) push_link(hop);
      }
      // Once the component holds most of the flows the restricted fill
      // costs as much as the full one — stop closing and fall back.
      if (component_flows * 2 > active_flow_count_) full = true;
    }
    if (full) ++solve_stats_.fallback_solves;
  }
  dirty_links_.clear();
  if (full) {
    fill(occupied_links_, active_flow_count_, at);
    ++solve_stats_.full_solves;
    solve_stats_.flows_resolved += active_flow_count_;
    if (profile_)
      profile_->record(obs::Timer::kTmSolveFull, ms_since(solve_start));
    return;
  }

  std::sort(solve_links_.begin(), solve_links_.end());
  fill(solve_links_, component_flows, at);
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

/// The one filling loop. `links` lists, ascending, every occupied link the
/// `flows` flows to re-level traverse; each round drops the links whose
/// flows are all frozen, so a round costs the links still in play.
void TransferManager::fill(const std::vector<LinkId>& links,
                           std::size_t flows, TimeMs at) {
  fill_links_.assign(links.begin(), links.end());
  for (const LinkId l : fill_links_) {
    APT_ASSERT(!link_flows_[l].empty(), "fill list holds idle link %u", l);
    solve_cap_[l] = link_cap_[l];
    solve_unfrozen_[l] = link_flows_[l].size();
  }
  while (flows > 0) {
    if (profile_)
      profile_->add(obs::Counter::kTmLinksScanned, fill_links_.size());
    double level = kInf;
    for (const LinkId l : fill_links_) {
      if (solve_unfrozen_[l] == 0) continue;
      level = std::min(
          level, solve_cap_[l] / static_cast<double>(solve_unfrozen_[l]));
    }
    // Exact arithmetic keeps every unfrozen link's level positive; only
    // float drift of the cascading subtractions could break that, and a
    // zero rate would stall the event loop — floor it instead. The freeze
    // pass below matches with <=, so a drift-flattened link (ratio 0 <
    // floored level) still freezes and the loop always terminates.
    if (!(level > 0.0)) level = 1e-6;
    std::size_t kept = 0;
    for (const LinkId l : fill_links_) {
      // A link emptied by an earlier freeze this round is dropped.
      if (solve_unfrozen_[l] == 0) continue;
      // The argmin links compare exactly equal; drifted-below ones (see
      // the floor above, or caps nudged by an earlier freeze this round)
      // must freeze too or the round could freeze nothing.
      if (solve_cap_[l] / static_cast<double>(solve_unfrozen_[l]) > level) {
        fill_links_[kept++] = l;
        continue;
      }
      for (const std::size_t slot : link_flows_[l]) {
        Message& m = messages_[slot];
        if (m.solve_round == solve_round_) continue;  // frozen already
        for (const LinkId hop : m.path) {
          solve_cap_[hop] -= level;
          if (solve_cap_[hop] < 0.0) solve_cap_[hop] = 0.0;
          --solve_unfrozen_[hop];
        }
        freeze_flow(slot, level, at);
        --flows;
      }
    }
    fill_links_.resize(kept);
  }
}

#ifndef NDEBUG
/// Debug-build cross-check: after an incremental solve, a full re-solve at
/// the same instant must leave every rate untouched (freeze_flow with an
/// equal rate is a no-op, so a passing check perturbs nothing observable).
void TransferManager::verify_incremental_solve(TimeMs at) {
  std::vector<std::pair<std::size_t, double>> before;
  before.reserve(active_flow_count_);
  for (std::size_t slot = 0; slot < messages_.size(); ++slot) {
    if (messages_[slot].active)
      before.emplace_back(slot, messages_[slot].rate_ms);
  }
  ++solve_round_;
  obs::Profile* const profile = profile_;  // the check is not solver work
  profile_ = nullptr;
  fill(occupied_links_, active_flow_count_, at);
  profile_ = profile;
  for (const auto& [slot, rate] : before) {
    APT_ASSERT(messages_[slot].rate_ms == rate,
               "incremental max-min solve diverged from the full solve: "
               "flow slot %zu re-solved to %.17g MB/ms at t=%.17g, "
               "incremental had %.17g",
               slot, messages_[slot].rate_ms, at, rate);
  }
}
#endif

TimeMs TransferManager::link_drain_ms(LinkId link) const {
  if (profile_) profile_->add(obs::Counter::kTmDrainReads);
  const std::vector<std::size_t>& flows = link_flows_.at(link);
  DrainMemo& memo = drain_memo_[link];
  if (memo.round != solve_round_) {
    memo.round = solve_round_;
    memo.until = -kInf;
    for (const std::size_t slot : flows) {
      const Message& m = messages_[slot];
      if (!(m.rate_ms > 0.0)) continue;
      // The same piecewise-linear projection freeze_flow pushed on the
      // heap.
      memo.until = std::max(memo.until, m.anchor_ms + m.remaining / m.rate_ms);
    }
  }
  // Clamped because a ripe-within-tolerance flow can project at now_.
  const TimeMs drain = memo.until - now_;
  return drain > 0.0 ? drain : 0.0;
}

std::vector<Delivery> TransferManager::advance_to(TimeMs t) {
  std::vector<Delivery> out;
  advance_to(t, out);
  return out;
}

void TransferManager::advance_to(TimeMs t, std::vector<Delivery>& out) {
  if (!(t >= now_))  // NaN fails too
    throw std::invalid_argument(
        "TransferManager: time must not go backwards or be NaN");
  out.clear();
  for (;;) {
    const TimeMs e = next_event_ms();
    // An idle fabric reports +inf, which advance_to(+inf) must not take
    // for an event.
    if (!(e <= t) || e == kInf) break;
    bool membership_changed = false;
    while (!projections_.empty() && projections_.front().finish <= e) {
      deliver(pop_projection(), e, out);
      membership_changed = true;
    }
    while (!activations_.empty() && activations_.top().time <= e) {
      const std::size_t slot = activations_.top().slot;
      activations_.pop();
      activate(slot, e);
      membership_changed = true;
    }
    if (membership_changed) resolve_rates(e);
    now_ = e;
  }
  if (t > now_) now_ = t;
  std::sort(out.begin(), out.end(),
            [](const Delivery& a, const Delivery& b) { return a.tag < b.tag; });
}

}  // namespace apt::net
