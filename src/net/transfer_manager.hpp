// Contended message simulation over a Topology.
//
// A TransferManager owns the in-flight messages of one simulation run. Each
// message occupies the *route* of its processor pair (one link for the
// single-hop kinds, a multi-link path for ring/mesh/fattree) and, after the
// route's head latency, drains its bytes at its max-min fair rate:
// progressive filling assigns every message the largest rate such that no
// link exceeds its bandwidth and no message could go faster without
// starving a slower one — on a single link this degenerates to the equal
// split bandwidth / n. Rates only change when a message joins or leaves the
// fabric, so progress is piecewise linear, the next delivery is a pure
// projection, and the engines fold next_event_ms() into their event loops
// while the whole simulation stays discrete.
//
// Event lookup is heap-backed: pending activations sit in one min-heap and
// projected completions in an indexed binary min-heap that holds exactly
// one entry per draining message, keyed by (projected finish, slot). A
// rate change re-keys the message's entry in place, a delivery pops it, so
// next_event_ms() is a read of the two heap tops, and time only advances
// message state at membership events — an engine event that fires between
// two transfer events no longer touches the fabric at all.
//
// The rate solver is *incremental*: a membership event (a message joining
// or leaving the fabric) can only move the saturation level of links
// reachable from the changed message's route through shared flows. The
// solver marks those links dirty, closes the link<->flow component around
// them, and re-runs progressive filling over that component alone — every
// flow outside it keeps its frozen rate, anchor, and projection. Because
// max-min components are independent (no flow spans two components) and
// the filling loop visits links in ascending id and flows in per-link list
// order either way, the incremental rates are bit-identical to a full
// re-solve — debug builds assert this after every incremental solve. When
// the component closure swallows most of the active flows the solver falls
// back to the full solve, which fills over the ascending list of occupied
// links (kept current at each link's 0 <-> 1 occupancy transition), so
// neither path's cost grows with idle links. One filling loop serves both,
// and SolveStats counts the two paths for observability.
//
// Determinism: message ids/tags are caller-supplied and deliveries at one
// instant are reported in ascending tag order; the rate solver iterates
// links and messages in fixed index order with no iteration-order-dependent
// arithmetic.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "net/topology.hpp"

namespace apt::obs {
class Profile;
}  // namespace apt::obs

namespace apt::net {

/// Completion tolerance of the drain loop: a message is deliverable once
/// its remainder is within this of zero — an absolute floor plus a
/// relative term so multi-GB messages survive the float drift of many
/// rate-change re-anchors, while zero-byte (latency-only) messages deliver
/// exactly at activation. Exposed so tests can pin the contract.
inline double done_eps(double bytes) {
  return bytes * 1e-12 > 1e-6 ? bytes * 1e-12 : 1e-6;
}

/// One completed message, reported by advance_to().
struct Delivery {
  std::uint64_t tag = 0;  ///< caller's handle from start()
  double bytes = 0.0;
  std::size_t hops = 0;  ///< links the route traversed
  TimeMs delivered_ms = 0.0;
};

/// Rate-solver observability counters: how membership events were actually
/// re-solved. `full_solves` counts runs of progressive filling over every
/// active flow (first solves, FullAlways mode, and threshold fallbacks —
/// the latter also counted in `fallback_solves`); `incremental_solves`
/// counts component-restricted re-solves; `flows_resolved` sums the flows
/// re-leveled across all solves and `flows_active` the flows that were live
/// at those instants, so resolved/active is the touched fraction.
struct SolveStats {
  std::uint64_t full_solves = 0;
  std::uint64_t incremental_solves = 0;
  std::uint64_t fallback_solves = 0;
  std::uint64_t flows_resolved = 0;
  std::uint64_t flows_active = 0;
};

class TransferManager {
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
  explicit TransferManager(const Topology& topology);

  const Topology& topology() const noexcept { return topology_; }

  /// Start of the observation window for the *_in_window accounting
  /// (steady-state metrics exclude warmup). Defaults to 0 (everything
  /// observed); must be set before the first message starts.
  void set_window_start(TimeMs start);

  /// Schedules a message of `bytes` from -> to, entering its route at
  /// `at_time` + the route's head latency. `at_time` may lie in the future
  /// — the activation is itself a progress event. The pair must not be
  /// local, `bytes`, `at_time` and the activation instant must be finite,
  /// and `at_time` must not precede the last advance_to() instant
  /// (std::invalid_argument). `tag`
  /// is returned verbatim with the delivery; callers use it to find the
  /// waiting kernel.
  void start(std::uint64_t tag, double bytes, ProcId from, ProcId to,
             TimeMs at_time);

  /// True while any message is pending activation or draining.
  bool busy() const noexcept { return live_count_ > 0; }

  /// Earliest instant at which a message activates or delivers (+infinity
  /// when idle). The engines merge this into their event clocks.
  TimeMs next_event_ms() const;

  /// Advances the shared-progress simulation to `t` (>= the previous call,
  /// not NaN, possibly +inf), returning every message delivered at or
  /// before `t`, ascending by tag.
  std::vector<Delivery> advance_to(TimeMs t);

  /// Allocation-free variant for the engine hot loops: clears `out` and
  /// fills it with the same deliveries advance_to(t) would return. The
  /// caller owns the buffer and reuses it across events, so the per-event
  /// vector churn disappears; capacity is only ever grown.
  void advance_to(TimeMs t, std::vector<Delivery>& out);

  /// Cumulative rate-solver counters for this manager (never reset).
  const SolveStats& solve_stats() const noexcept { return solve_stats_; }

  /// Attaches a hot-path profile (src/obs) that the manager feeds with
  /// its solver's full/incremental wall-clock split, its work counters, and
  /// a count of link_drain_ms reads.
  /// Null (the default) disables the clock reads entirely; simulation
  /// results are unaffected either way. The profile must outlive the
  /// manager.
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
  /// only within that latency window and hold no link share yet. The
  /// latest projected finish is memoized per link until the next solve
  /// (x − now rounds monotonically in x, so the value is unchanged).
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
    std::uint64_t solve_round = 0;  ///< frozen marker of the rate solver
    bool active = false;
    std::vector<LinkId> path;         ///< route links (reused with the slot)
    std::vector<std::size_t> link_pos;  ///< position in link_flows_[path[i]]
  };

  /// A pending message's activation; each start() pushes exactly one.
  struct Activation {
    TimeMs time;
    std::size_t slot;

    bool operator>(const Activation& other) const noexcept {
      return time > other.time;
    }
  };
  using ActivationHeap =
      std::priority_queue<Activation, std::vector<Activation>,
                          std::greater<Activation>>;

  /// A draining message's projected finish: one node of projections_.
  struct Projection {
    TimeMs finish;
    std::size_t slot;

    /// Heap order: earliest finish first, ties by slot, so the pop order
    /// never depends on the heap's shape.
    bool operator<(const Projection& other) const noexcept {
      return finish < other.finish ||
             (finish == other.finish && slot < other.slot);
    }
  };
  static constexpr std::size_t kNotProjected = static_cast<std::size_t>(-1);

  void project(std::size_t slot, TimeMs finish);
  std::size_t pop_projection();
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void activate(std::size_t slot, TimeMs at);
  void deliver(std::size_t slot, TimeMs at, std::vector<Delivery>& out);
  void mark_dirty(const std::vector<LinkId>& path);
  void resolve_rates(TimeMs at);
  void fill(const std::vector<LinkId>& links, std::size_t flows, TimeMs at);
  void freeze_flow(std::size_t slot, double rate, TimeMs at);
#ifndef NDEBUG
  void verify_incremental_solve(TimeMs at);
#endif

  const Topology& topology_;
  std::vector<Message> messages_;  ///< slot arena, slots reused
  std::vector<std::size_t> free_slots_;
  std::vector<std::vector<std::size_t>> link_flows_;  ///< [link] -> slots

  ActivationHeap activations_;  ///< pending messages by activation time
  /// Indexed binary min-heap over the draining messages, ordered by
  /// (finish, slot); projection_pos_[slot] is the slot's node index, or
  /// kNotProjected while the slot is pending or free.
  std::vector<Projection> projections_;
  std::vector<std::size_t> projection_pos_;

  std::vector<double> link_cap_;        ///< [link] capacity in bytes/ms
  std::vector<LinkId> occupied_links_;  ///< links carrying flows, ascending

  // Rate-solver scratch, sized once ([link]); fill() drops saturated links
  // from fill_links_ round by round.
  std::vector<double> solve_cap_;
  std::vector<std::size_t> solve_unfrozen_;
  std::vector<LinkId> fill_links_;
  std::uint64_t solve_round_ = 0;

  /// link_drain_ms memo: the latest projected finish, valid while `round`
  /// is solve_round_ (rates, anchors and remainders change only in solves).
  struct DrainMemo {
    TimeMs until = 0.0;
    std::uint64_t round = 0;
  };
  mutable std::vector<DrainMemo> drain_memo_;

  // Incremental-solver state. dirty_links_ collects the links whose
  // membership changed since the last solve; the mark arrays (tagged with
  // mark_round_ so they never need clearing) track which links/flows the
  // component closure has absorbed; solve_links_ is the sorted dirty
  // component the restricted filling runs over.
  SolveMode solve_mode_;
  std::vector<LinkId> dirty_links_;
  std::vector<std::uint64_t> link_mark_;   ///< [link] closure round
  std::vector<std::uint64_t> flow_mark_;   ///< [slot] closure round
  std::uint64_t mark_round_ = 0;
  std::vector<LinkId> solve_links_;        ///< dirty component, ascending
  SolveStats solve_stats_;
  obs::Profile* profile_ = nullptr;  ///< optional solver wall-clock timing

  // Busy intervals fold as link occupancy transitions 0 <-> >0.
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

}  // namespace apt::net
