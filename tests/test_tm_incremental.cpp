// Equivalence tests for the incremental max-min re-solve in
// net::TransferManager — the streaming hot-path optimisation must be
// invisible in every simulated quantity:
//
//  * randomized scenarios (routed and single-hop shapes x 40 seeds) drive
//    the shipped manager in both solve modes and the frozen reference
//    (reference_transfer_manager.hpp) in both modes in lockstep; every
//    event time, delivery, link drain, per-link total, and SolveStats
//    counter must match BITWISE;
//  * hand-built timelines drive the delivery heap through its edge cases
//    (tied projections, re-keys in both directions, slot reuse) in the
//    same lockstep;
//  * the filling loop's work stays flat in the fabric size
//    (obs::Counter::kTmLinksScanned), the delivery heap pops once per
//    delivered message (obs::Counter::kTmProjectionsPopped), and churn
//    under a standing load re-solves only the dirtied component;
//  * the stream engine under contention produces identical TransferRecord
//    timelines and StreamMetrics either way, at 10x the densest sustained
//    bench rate;
//  * SolveStats counters surface the split and stay internally consistent;
//  * the reusable advance_to out-buffer overload matches the returning one.
#include "net/transfer_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/lookup_table.hpp"
#include "lut/paper_data.hpp"
#include "net/topology.hpp"
#include "obs/profile.hpp"
#include "reference_transfer_manager.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "stream/stream_engine.hpp"
#include "util/rng.hpp"

namespace apt {
namespace {

/// Restores the process-wide default solve modes on scope exit, so a
/// failing assertion cannot leak FullAlways into later tests.
struct SolveModeGuard {
  ~SolveModeGuard() {
    net::TransferManager::set_default_solve_mode(
        net::TransferManager::SolveMode::Auto);
    test::ReferenceTransferManager::set_default_solve_mode(
        test::ReferenceTransferManager::SolveMode::Auto);
  }
};

net::Topology routed_topology(const std::string& spec_str,
                              net::ProcId procs) {
  net::TopologySpec spec = net::parse_topology_spec(spec_str);
  spec.bandwidth_gbps = 1.0;  // 1e6 bytes/ms
  spec.latency_ms = 0.05;
  return net::Topology(spec, procs, 1.0);
}

/// A manager of type `Tm` built in `mode` (the mode is a process-wide
/// default picked up at construction).
template <typename Tm>
std::unique_ptr<Tm> make_manager(const net::Topology& topo,
                                 typename Tm::SolveMode mode) {
  Tm::set_default_solve_mode(mode);
  auto tm = std::make_unique<Tm>(topo);
  Tm::set_default_solve_mode(Tm::SolveMode::Auto);
  return tm;
}

void expect_same_stats(const net::SolveStats& a, const net::SolveStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.full_solves, b.full_solves) << where;
  EXPECT_EQ(a.incremental_solves, b.incremental_solves) << where;
  EXPECT_EQ(a.fallback_solves, b.fallback_solves) << where;
  EXPECT_EQ(a.flows_resolved, b.flows_resolved) << where;
  EXPECT_EQ(a.flows_active, b.flows_active) << where;
}

/// The shipped manager in Auto and FullAlways mode next to the frozen
/// reference in both modes, all fed one event sequence. Rates are
/// bit-identical across all four, so every simulated quantity must match;
/// the solver counters match within each mode.
class Lockstep {
 public:
  using Tm = net::TransferManager;
  using Ref = test::ReferenceTransferManager;

  explicit Lockstep(const net::Topology& topo)
      : links_(topo.link_count()),
        inc_(make_manager<Tm>(topo, Tm::SolveMode::Auto)),
        full_(make_manager<Tm>(topo, Tm::SolveMode::FullAlways)),
        ref_inc_(make_manager<Ref>(topo, Ref::SolveMode::Auto)),
        ref_full_(make_manager<Ref>(topo, Ref::SolveMode::FullAlways)) {}

  const Tm& inc() const { return *inc_; }
  const Tm& full() const { return *full_; }
  /// Every delivery so far, in the order advance_to() reported them.
  const std::vector<net::Delivery>& delivered() const { return delivered_; }

  void set_window_start(net::TimeMs start) {
    inc_->set_window_start(start);
    full_->set_window_start(start);
    ref_inc_->set_window_start(start);
    ref_full_->set_window_start(start);
  }

  void start(std::uint64_t tag, double bytes, net::ProcId from,
             net::ProcId to, net::TimeMs at) {
    inc_->start(tag, bytes, from, to, at);
    full_->start(tag, bytes, from, to, at);
    ref_inc_->start(tag, bytes, from, to, at);
    ref_full_->start(tag, bytes, from, to, at);
  }

  /// Next event instant, after checking all four agree on it.
  net::TimeMs next_event_ms() const {
    const net::TimeMs e = ref_inc_->next_event_ms();
    EXPECT_EQ(inc_->next_event_ms(), e);  // bitwise
    EXPECT_EQ(full_->next_event_ms(), e);
    EXPECT_EQ(ref_full_->next_event_ms(), e);
    return e;
  }

  /// Advances all four to `t` and compares the deliveries and the state
  /// they leave behind; returns the number of deliveries.
  std::size_t advance_to(net::TimeMs t) {
    ref_inc_->advance_to(t, expected_);
    ref_full_->advance_to(t, got_);
    expect_same_deliveries("reference FullAlways");
    inc_->advance_to(t, got_);
    expect_same_deliveries("Auto");
    full_->advance_to(t, got_);
    expect_same_deliveries("FullAlways");
    expect_same_state();
    delivered_.insert(delivered_.end(), expected_.begin(), expected_.end());
    return expected_.size();
  }

  /// Runs every event up to `until` (inclusive), stopping halfway between
  /// consecutive instants as well: time that moves without a membership
  /// event must leave the memoized drains exact.
  void run_until(net::TimeMs until) {
    for (;;) {
      const net::TimeMs e = next_event_ms();
      if (std::isinf(e) || e > until) break;
      advance_to(e);
      const net::TimeMs horizon = std::min(next_event_ms(), until);
      if (std::isinf(horizon)) continue;
      const net::TimeMs mid = e + (horizon - e) * 0.5;
      if (mid > e && mid < horizon) {
        EXPECT_EQ(advance_to(mid), 0u);
      }
    }
    if (std::isfinite(until)) {
      EXPECT_EQ(advance_to(until), 0u);
    }
  }

 private:
  void expect_same_deliveries(const char* who) {
    ASSERT_EQ(got_.size(), expected_.size()) << who;
    for (std::size_t i = 0; i < got_.size(); ++i) {
      EXPECT_EQ(got_[i].tag, expected_[i].tag) << who;
      EXPECT_EQ(got_[i].bytes, expected_[i].bytes) << who;
      EXPECT_EQ(got_[i].hops, expected_[i].hops) << who;
      EXPECT_EQ(got_[i].delivered_ms, expected_[i].delivered_ms) << who;
    }
  }

  template <typename A>
  void expect_same_links(const A& tm, const char* who) const {
    EXPECT_EQ(tm.busy(), ref_inc_->busy()) << who;
    EXPECT_EQ(tm.live_count(), ref_inc_->live_count()) << who;
    EXPECT_EQ(tm.started_count(), ref_inc_->started_count()) << who;
    EXPECT_EQ(tm.delivered_count(), ref_inc_->delivered_count()) << who;
    for (net::LinkId l = 0; l < links_; ++l) {
      const net::TimeMs drain = ref_inc_->link_drain_ms(l);
      EXPECT_EQ(tm.link_drain_ms(l), drain) << who << " link " << l;
      // A second read at the same instant hits the memo.
      EXPECT_EQ(tm.link_drain_ms(l), drain) << who << " link " << l;
      EXPECT_EQ(tm.link_flow_count(l), ref_inc_->link_flow_count(l))
          << who << " link " << l;
    }
    EXPECT_EQ(tm.link_busy_ms(), ref_inc_->link_busy_ms()) << who;
    EXPECT_EQ(tm.link_busy_in_window_ms(), ref_inc_->link_busy_in_window_ms())
        << who;
    EXPECT_EQ(tm.link_delivered_bytes(), ref_inc_->link_delivered_bytes())
        << who;
    EXPECT_EQ(tm.link_bytes_in_window(), ref_inc_->link_bytes_in_window())
        << who;
    EXPECT_EQ(tm.link_delivered_counts(), ref_inc_->link_delivered_counts())
        << who;
    EXPECT_EQ(tm.link_counts_in_window(), ref_inc_->link_counts_in_window())
        << who;
    EXPECT_EQ(tm.link_hops_in_window(), ref_inc_->link_hops_in_window())
        << who;
  }

  void expect_same_state() const {
    expect_same_links(*ref_full_, "reference FullAlways");
    expect_same_links(*inc_, "Auto");
    expect_same_links(*full_, "FullAlways");
    expect_same_stats(inc_->solve_stats(), ref_inc_->solve_stats(), "Auto");
    expect_same_stats(full_->solve_stats(), ref_full_->solve_stats(),
                      "FullAlways");
  }

  std::size_t links_;
  std::unique_ptr<Tm> inc_;
  std::unique_ptr<Tm> full_;
  std::unique_ptr<Ref> ref_inc_;
  std::unique_ptr<Ref> ref_full_;
  std::vector<net::Delivery> expected_;
  std::vector<net::Delivery> got_;
  std::vector<net::Delivery> delivered_;
};

TEST(TmIncremental, RandomizedScenariosMatchTheFrozenSolverBitwise) {
  const SolveModeGuard guard;
  struct Shape {
    const char* spec;
    net::ProcId procs;
  };
  // The routed kinds, the fabric-mesh shape, and the single-hop kinds.
  const std::vector<Shape> shapes = {
      {"ring:6", 6},   {"mesh:3x3", 9}, {"mesh:3x4", 12}, {"fattree:2", 8},
      {"crossbar", 4}, {"bus", 4},      {"hier:2", 6}};
  std::uint64_t incremental_total = 0;
  for (const Shape& shape : shapes) {
    const net::Topology topo = routed_topology(shape.spec, shape.procs);
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      SCOPED_TRACE(std::string(shape.spec) + " seed " + std::to_string(seed));
      util::Rng rng(0xD1517 * seed + shape.procs);
      Lockstep fabric(topo);
      fabric.set_window_start(2.0);  // exercise the *_in_window totals

      // 20-60 messages with clustered starts: enough simultaneous flows to
      // cross the small-solve floor and exercise the restricted filling.
      const std::size_t count = 20 + rng.uniform_u64(41);
      net::TimeMs at = 0.0;
      for (std::size_t m = 0; m < count; ++m) {
        at += rng.uniform_real(0.01, 1.5);
        const auto from =
            static_cast<net::ProcId>(rng.uniform_u64(shape.procs));
        auto to = static_cast<net::ProcId>(rng.uniform_u64(shape.procs));
        if (to == from) to = (to + 1) % shape.procs;
        const double bytes = rng.uniform_real(1e4, 5e6);
        fabric.run_until(at);
        if (topo.is_local(from, to)) continue;  // hier: same socket
        fabric.start(m, bytes, from, to, at);
      }
      fabric.run_until(std::numeric_limits<net::TimeMs>::infinity());
      EXPECT_FALSE(fabric.inc().busy());
      if (::testing::Test::HasFailure()) return;

      // full_solves already includes the fallbacks, so full + incremental
      // partitions the membership events.
      const net::SolveStats& inc = fabric.inc().solve_stats();
      const net::SolveStats& full = fabric.full().solve_stats();
      EXPECT_EQ(inc.incremental_solves + inc.full_solves, full.full_solves);
      EXPECT_LE(inc.fallback_solves, inc.full_solves);
      EXPECT_EQ(full.incremental_solves, 0u);
      incremental_total += inc.incremental_solves;
    }
  }
  // The suite must actually exercise the incremental path, not fall back
  // to full solves throughout.
  EXPECT_GT(incremental_total, 0u);
}

// --- Delivery-heap edge cases ---------------------------------------------
//
// Hand-built timelines on row 0 of a 2x4 mesh (P0 -> P1 and P2 -> P3 are
// disjoint one-hop routes; 1e6 B/ms links, 0.05 ms head latency), driven
// in lockstep with the frozen reference: next_event_ms() and every
// delivery must match bitwise at every instant.

/// (tag, instant) of each delivery, in report order.
std::vector<std::pair<std::uint64_t, net::TimeMs>> timeline(
    const std::vector<net::Delivery>& delivered) {
  std::vector<std::pair<std::uint64_t, net::TimeMs>> out;
  for (const net::Delivery& d : delivered)
    out.emplace_back(d.tag, d.delivered_ms);
  return out;
}

// Equal messages on disjoint links, and equal messages sharing one link,
// project the same finish. The heap breaks such ties by slot; the report
// must still list each instant's deliveries in tag order, so the tags run
// against the slots here.
TEST(TmIncremental, TiedProjectionsDeliverAtOneInstantInTagOrder) {
  const SolveModeGuard guard;
  const net::Topology topo = routed_topology("mesh:2x4", 8);
  Lockstep fabric(topo);
  fabric.start(9, 2e6, 0, 1, 0.0);  // slot 0
  fabric.start(4, 2e6, 2, 3, 0.0);  // slot 1, same finish, disjoint link
  fabric.start(7, 1e6, 1, 2, 0.0);  // slot 2 shares P1->P2 with slot 3
  fabric.start(3, 1e6, 1, 2, 0.0);  // slot 3
  fabric.run_until(std::numeric_limits<net::TimeMs>::infinity());
  const auto got = timeline(fabric.delivered());
  ASSERT_EQ(got.size(), 4u);
  // 2e6 B alone and 1e6 B at half rate both take 2 ms after activation.
  for (const auto& [tag, at] : got) EXPECT_EQ(at, got[0].second) << tag;
  EXPECT_NEAR(got[0].second, 2.05, 1e-9);
  EXPECT_EQ(got[0].first, 3u);
  EXPECT_EQ(got[1].first, 4u);
  EXPECT_EQ(got[2].first, 7u);
  EXPECT_EQ(got[3].first, 9u);
  EXPECT_FALSE(fabric.inc().busy());
}

// A joining flow halves A's rate, so A's projection moves past B's (the
// heap must sift A down); C's own projection lands behind both, so its
// insertion cannot repair a skipped sift-down. When A leaves, C's rate
// doubles and its projection moves ahead of D's, which sits above it (the
// heap must sift C up).
//
//   A: P0->P1 4e6 B at 0, alone until C joins -> projected 4.05, then 7.05
//   B: P2->P3 5.5e6 B at 0                    -> 5.55
//   C: P0->P1 1e7 B at 1, shares with A       -> 21.05, then 14.05
//   D: P2->P3 1e7 B at 6, after B left        -> 16.05
TEST(TmIncremental, RateChangesReKeyProjectionsBothWays) {
  const SolveModeGuard guard;
  const net::Topology topo = routed_topology("mesh:2x4", 8);
  Lockstep fabric(topo);
  fabric.start(0, 4e6, 0, 1, 0.0);    // A
  fabric.start(1, 5.5e6, 2, 3, 0.0);  // B
  fabric.run_until(1.0);
  fabric.start(2, 1e7, 0, 1, 1.0);  // C
  fabric.run_until(6.0);
  fabric.start(3, 1e7, 2, 3, 6.0);  // D
  fabric.run_until(std::numeric_limits<net::TimeMs>::infinity());
  const auto got = timeline(fabric.delivered());
  ASSERT_EQ(got.size(), 4u);
  const std::vector<std::uint64_t> order = {1, 0, 2, 3};  // B, A, C, D
  const std::vector<net::TimeMs> at = {5.55, 7.05, 14.05, 16.05};
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, order[i]) << i;
    EXPECT_NEAR(got[i].second, at[i], 1e-9) << i;
  }
}

// A delivered message frees its slot; the next start() reuses it. The new
// tenant must enter the heap as a fresh node, not re-key whatever node now
// sits at its predecessor's old index (B's, after A's pop).
TEST(TmIncremental, AReusedSlotDoesNotInheritTheOldHeapPosition) {
  const SolveModeGuard guard;
  const net::Topology topo = routed_topology("mesh:2x4", 8);
  Lockstep fabric(topo);
  fabric.start(0, 1e6, 0, 1, 0.0);  // A, slot 0: delivered at 1.05
  fabric.start(1, 5e6, 2, 3, 0.0);  // B, slot 1: delivered at 5.05
  fabric.run_until(2.0);
  ASSERT_EQ(fabric.delivered().size(), 1u);
  fabric.start(2, 1e6, 0, 1, 2.0);  // C reuses slot 0: delivered at 3.05
  fabric.start(3, 3e6, 1, 2, 2.0);  // E, slot 2: delivered at 5.05
  fabric.run_until(std::numeric_limits<net::TimeMs>::infinity());
  const auto got = timeline(fabric.delivered());
  ASSERT_EQ(got.size(), 4u);
  const std::vector<std::uint64_t> order = {0, 2, 1, 3};
  const std::vector<net::TimeMs> at = {1.05, 3.05, 5.05, 5.05};
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, order[i]) << i;
    EXPECT_NEAR(got[i].second, at[i], 1e-9) << i;
  }
}

// Solver work must follow the flows, not the fabric: the same three
// messages in row 0 of a 2x4 mesh (20 links) and of an 8x8 mesh (224
// links) must send exactly the same links through the filling rounds.
// A: P0->P1 (2e6 B) and C: P0->P2 (4e6 B) share the first eastbound link,
// B: P1->P2 (6e6 B) and C the second. At 1e6 B/ms both links level at
// 5e5 B/ms: A lands at 4 ms; C and B then level at 5e5 on the second link
// (the first still carries C), so C lands at 8 ms; B alone finishes at
// 10 ms. The three solves scan 2 + 2 + 1 occupied links.
TEST(TmIncremental, FillingWorkIsFlatInTheFabricSize) {
  std::vector<std::uint64_t> scanned;
  for (const auto& [spec, procs] :
       {std::pair<const char*, net::ProcId>{"mesh:2x4", 8},
        std::pair<const char*, net::ProcId>{"mesh:8x8", 64}}) {
    const net::Topology topo = [&] {
      net::TopologySpec s = net::parse_topology_spec(spec);
      s.bandwidth_gbps = 1.0;
      return net::Topology(s, procs, 1.0);
    }();
    obs::Profile profile;
    net::TransferManager tm(topo);
    tm.set_profile(&profile);
    tm.start(0, 2e6, 0, 1, 0.0);
    tm.start(1, 6e6, 1, 2, 0.0);
    tm.start(2, 4e6, 0, 2, 0.0);
    std::vector<net::TimeMs> delivered(3, 0.0);
    while (tm.busy())
      for (const net::Delivery& d : tm.advance_to(tm.next_event_ms()))
        delivered[d.tag] = d.delivered_ms;
    EXPECT_EQ(delivered, (std::vector<net::TimeMs>{4.0, 10.0, 8.0})) << spec;
    EXPECT_EQ(tm.solve_stats().full_solves, 3u) << spec;
    scanned.push_back(profile.count(obs::Counter::kTmLinksScanned));
  }
  EXPECT_EQ(scanned[0], scanned[1]);
  EXPECT_EQ(scanned[0], 5u);
}

// The delivery heap holds exactly the draining messages: a re-key moves a
// node, a delivery pops it, and nothing is left to discard. So on a churn
// run where rates change many times per message, pops equal deliveries.
// A lazily pruned heap pops every superseded projection too (about 4.9
// per delivery on the fabric-mesh bench).
TEST(TmIncremental, DeliveryHeapPopsOncePerMessage) {
  const net::Topology topo = routed_topology("mesh:3x4", 12);
  obs::Profile profile;
  net::TransferManager tm(topo);
  tm.set_profile(&profile);
  util::Rng rng(0x9E4F);
  net::TimeMs at = 0.0;
  for (std::size_t m = 0; m < 400; ++m) {
    at += rng.uniform_real(0.01, 0.3);
    const auto from = static_cast<net::ProcId>(rng.uniform_u64(12));
    auto to = static_cast<net::ProcId>(rng.uniform_u64(12));
    if (to == from) to = (to + 1) % 12;
    tm.advance_to(at);
    tm.start(m, rng.uniform_real(1e5, 5e6), from, to, at);
  }
  while (tm.busy()) tm.advance_to(tm.next_event_ms());
  EXPECT_EQ(tm.delivered_count(), 400u);
  EXPECT_EQ(profile.count(obs::Counter::kTmProjectionsPopped),
            tm.delivered_count());
  // The churn is real: solves re-leveled several flows per delivery, each
  // a potential re-key of a live projection.
  EXPECT_GT(tm.solve_stats().flows_resolved, 3 * tm.delivered_count());
}

// Membership churn under a standing load: 64, 512 and 4,096 long-lived
// messages round-robin over the 112 pairwise link-disjoint eastbound 2-hop
// routes of a 16x16 mesh (row r, even column c -> c + 2), so each route is
// its own component of the 960-link fabric. Each churn starts a short
// message on the next route and advances 1 ms, across its activation and
// its delivery. Both events dirty one component, so each incremental
// solve fills at most that component's 2 links and re-solves the flows on
// its route: ceil(flows / 112) standing ones plus the new one. The full
// solve fills every occupied link and re-solves every flow on both events:
// 67,472 links over the 200 churns at 64 flows, 156,272 at 512 and 4,096.
TEST(TmIncremental, ChurnWorkFollowsTheDirtiedComponent) {
  constexpr std::uint64_t kChurns = 200;
  net::TopologySpec spec = net::parse_topology_spec("mesh:16x16");
  spec.bandwidth_gbps = 1.0;
  const net::Topology topo(spec, 256, 1.0);
  std::vector<std::pair<net::ProcId, net::ProcId>> routes;
  for (net::ProcId r = 0; r < 16; ++r)
    for (net::ProcId c = 0; c + 2 < 16; c += 2)
      routes.emplace_back(r * 16 + c, r * 16 + c + 2);
  ASSERT_EQ(routes.size(), 112u);
  for (const std::uint64_t flows : {64u, 512u, 4096u}) {
    net::TransferManager tm(topo);
    std::uint64_t tag = 0;
    for (; tag < flows; ++tag) {
      const auto& [from, to] = routes[tag % routes.size()];
      tm.start(tag, 1e12, from, to, 0.0);  // outlives the churn
    }
    tm.advance_to(0.0);  // activates the standing load
    const net::SolveStats before = tm.solve_stats();
    obs::Profile profile;
    tm.set_profile(&profile);
    net::TimeMs now = 0.0;
    for (std::uint64_t k = 0; k < kChurns; ++k) {
      const auto& [from, to] = routes[k % routes.size()];
      tm.start(tag++, 1e3, from, to, now);
      now += 1.0;
      tm.advance_to(now);
    }
    const net::SolveStats& after = tm.solve_stats();
    EXPECT_EQ(tm.delivered_count(), kChurns) << flows << " flows";
    // One solve per activation and one per delivery, none of them full (a
    // fallback counts as a full solve too).
    const std::uint64_t solves =
        (after.incremental_solves - before.incremental_solves) +
        (after.full_solves - before.full_solves);
    EXPECT_EQ(solves, 2 * kChurns) << flows << " flows";
    EXPECT_EQ(after.full_solves, before.full_solves) << flows << " flows";
    EXPECT_EQ(after.fallback_solves, before.fallback_solves)
        << flows << " flows";
    EXPECT_LE(profile.count(obs::Counter::kTmLinksScanned), 4 * kChurns)
        << flows << " flows";
    const std::uint64_t sharers = (flows + routes.size() - 1) / routes.size();
    EXPECT_LE(after.flows_resolved - before.flows_resolved,
              solves * (sharers + 1))
        << flows << " flows";
  }
}

TEST(TmIncremental, SolveStatsCountersStayConsistent) {
  const SolveModeGuard guard;
  const net::Topology topo = routed_topology("mesh:4x4", 16);
  net::TransferManager tm(topo);
  util::Rng rng(0xCAFE);
  net::TimeMs at = 0.0;
  for (std::size_t m = 0; m < 200; ++m) {
    at += rng.uniform_real(0.01, 0.2);
    const auto from = static_cast<net::ProcId>(rng.uniform_u64(16));
    auto to = static_cast<net::ProcId>(rng.uniform_u64(16));
    if (to == from) to = (to + 1) % 16;
    tm.advance_to(at);
    tm.start(m, rng.uniform_real(1e5, 5e6), from, to, at);
  }
  while (tm.busy()) tm.advance_to(tm.next_event_ms());
  const net::SolveStats& st = tm.solve_stats();
  EXPECT_GT(st.incremental_solves, 0u);
  EXPECT_GT(st.full_solves + st.fallback_solves, 0u);
  // Restricted fills resolve a subset of the active flows; full solves
  // resolve all of them — so the resolved count is bounded by the active
  // count and both grow monotonically past zero.
  EXPECT_GT(st.flows_active, 0u);
  EXPECT_GT(st.flows_resolved, 0u);
  EXPECT_LE(st.flows_resolved, st.flows_active);
}

TEST(TmIncremental, AdvanceToOutBufferMatchesReturningOverload) {
  const net::Topology topo = routed_topology("ring:6", 6);
  net::TransferManager a(topo);
  net::TransferManager b(topo);
  for (std::uint64_t m = 0; m < 8; ++m) {
    a.start(m, 1e5 * static_cast<double>(m + 1), m % 6, (m + 2) % 6, 0.0);
    b.start(m, 1e5 * static_cast<double>(m + 1), m % 6, (m + 2) % 6, 0.0);
  }
  std::vector<net::Delivery> out;
  out.push_back(net::Delivery{});  // stale content must be discarded
  while (a.busy()) {
    const net::TimeMs e = a.next_event_ms();
    EXPECT_EQ(e, b.next_event_ms());
    const auto returned = a.advance_to(e);
    b.advance_to(e, out);
    ASSERT_EQ(out.size(), returned.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].tag, returned[i].tag);
      EXPECT_EQ(out[i].delivered_ms, returned[i].delivered_ms);
    }
  }
  EXPECT_FALSE(b.busy());
}

// --- Stream-engine-level equivalence ----------------------------------------

stream::StreamOutcome run_contended_stream(const std::string& topology,
                                           const char* policy_spec,
                                           net::TransferManager::SolveMode
                                               mode) {
  net::TransferManager::set_default_solve_mode(mode);
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.topology = net::parse_topology_spec(topology);
  cfg.topology.bandwidth_gbps = 1.0;
  cfg.topology.latency_ms = 0.05;
  const sim::System system(cfg);
  const lut::LookupTable table = lut::paper_lookup_table();
  const sim::LutCostModel cost(table, system);
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);

  stream::StreamOptions opts;
  // 10x the densest sustained bench rate, bounded by a burst cap.
  opts.arrivals = stream::ArrivalSpec::poisson(0.005, 99);
  opts.max_apps = 16;
  opts.warmup_ms = 0.0;
  opts.record_schedules = true;
  stream::StreamEngine engine(
      system, cost,
      [&](std::size_t i) {
        return scenario::generate("type1", 46, 1000 + i, pool);
      },
      opts);
  const auto policy = core::make_policy(policy_spec);
  return engine.run(*policy);
}

TEST(TmIncremental, StreamEngineTimelinesMatchFullSolveBitwise) {
  const SolveModeGuard guard;
  for (const std::string topology : {"ring:5", "mesh:2x2", "fattree:2"}) {
    for (const char* spec : {"apt:4", "ag"}) {
      const stream::StreamOutcome full = run_contended_stream(
          topology, spec, net::TransferManager::SolveMode::FullAlways);
      const stream::StreamOutcome inc = run_contended_stream(
          topology, spec, net::TransferManager::SolveMode::Auto);

      ASSERT_EQ(full.schedules.size(), inc.schedules.size())
          << topology << " " << spec;
      for (std::size_t s = 0; s < full.schedules.size(); ++s) {
        const sim::SimResult& rf = full.schedules[s].result;
        const sim::SimResult& ri = inc.schedules[s].result;
        EXPECT_EQ(rf.makespan, ri.makespan);  // bitwise
        ASSERT_EQ(rf.schedule.size(), ri.schedule.size());
        for (std::size_t k = 0; k < rf.schedule.size(); ++k) {
          EXPECT_EQ(rf.schedule[k].proc, ri.schedule[k].proc);
          EXPECT_EQ(rf.schedule[k].exec_start, ri.schedule[k].exec_start);
          EXPECT_EQ(rf.schedule[k].finish_time, ri.schedule[k].finish_time);
        }
        // The simulated message timelines — start, drain, finish, route —
        // are the solver's direct output and must match bitwise.
        ASSERT_EQ(rf.transfers.size(), ri.transfers.size());
        for (std::size_t t = 0; t < rf.transfers.size(); ++t) {
          const sim::TransferRecord& a = rf.transfers[t];
          const sim::TransferRecord& b = ri.transfers[t];
          EXPECT_EQ(a.src, b.src);
          EXPECT_EQ(a.dst, b.dst);
          EXPECT_EQ(a.bytes, b.bytes);
          EXPECT_EQ(a.start, b.start);
          EXPECT_EQ(a.drain_start, b.drain_start);
          EXPECT_EQ(a.finish, b.finish);
          EXPECT_EQ(a.path, b.path);
        }
      }
      const sim::StreamMetrics& mf = full.metrics;
      const sim::StreamMetrics& mi = inc.metrics;
      EXPECT_EQ(mf.end_ms, mi.end_ms) << topology << " " << spec;
      EXPECT_EQ(mf.flow_ms.avg, mi.flow_ms.avg);
      EXPECT_EQ(mf.flow_ms.p95, mi.flow_ms.p95);
      EXPECT_EQ(mf.slowdown.avg, mi.slowdown.avg);
      EXPECT_EQ(mf.avg_utilization, mi.avg_utilization);
      ASSERT_EQ(mf.per_link.size(), mi.per_link.size());
      for (std::size_t l = 0; l < mf.per_link.size(); ++l) {
        EXPECT_EQ(mf.per_link[l].busy_ms, mi.per_link[l].busy_ms);
        EXPECT_EQ(mf.per_link[l].bytes, mi.per_link[l].bytes);
      }
      // The stats rode through the metrics pipeline: the full run counted
      // only full solves, the incremental run the split.
      EXPECT_EQ(mf.tm_solve_stats.incremental_solves, 0u);
      EXPECT_EQ(mf.tm_solve_stats.full_solves,
                mi.tm_solve_stats.full_solves +
                    mi.tm_solve_stats.incremental_solves);
    }
  }
}

}  // namespace
}  // namespace apt
