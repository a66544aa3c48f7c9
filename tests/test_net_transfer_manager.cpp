// Unit tests of net::TransferManager: fair bandwidth sharing on contended
// links, latency handling, future activations, and the per-link accounting
// the metrics layer consumes.
#include "net/transfer_manager.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

namespace apt::net {
namespace {

Topology bus_topology(double gbps, double latency_ms = 0.0) {
  TopologySpec spec = parse_topology_spec("bus");
  spec.bandwidth_gbps = gbps;
  spec.latency_ms = latency_ms;
  return Topology(spec, 3, gbps);
}

TEST(TransferManager, SingleMessageRunsAtFullBandwidth) {
  const Topology topo = bus_topology(4.0);  // 4e6 bytes/ms
  TransferManager tm(topo);
  tm.start(7, 8e6, 0, 1, 10.0);
  EXPECT_TRUE(tm.busy());
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 10.0);  // activation
  auto deliveries = tm.advance_to(10.0);
  EXPECT_TRUE(deliveries.empty());
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 12.0);  // 8e6 / 4e6 = 2 ms
  deliveries = tm.advance_to(12.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].tag, 7u);
  EXPECT_DOUBLE_EQ(deliveries[0].delivered_ms, 12.0);
  EXPECT_FALSE(tm.busy());
  EXPECT_TRUE(std::isinf(tm.next_event_ms()));
}

// Two 8e6-byte messages from t=0: each gets 2e6 bytes/ms, both finish at
// 4 ms — exactly twice the uncontended time.
TEST(TransferManager, TwoEqualMessagesFinishAtTwiceTheTime) {
  const Topology topo = bus_topology(4.0);
  TransferManager tm(topo);
  tm.start(0, 8e6, 0, 1, 0.0);
  tm.start(1, 8e6, 2, 1, 0.0);
  tm.advance_to(0.0);  // activate both
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 4.0);
  const auto deliveries = tm.advance_to(4.0);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].tag, 0u);  // ascending tag order
  EXPECT_EQ(deliveries[1].tag, 1u);
  EXPECT_DOUBLE_EQ(tm.link_busy_ms()[0], 4.0);
  EXPECT_DOUBLE_EQ(tm.link_delivered_bytes()[0], 16e6);
}

TEST(TransferManager, StaggeredArrivalSlowsTheFirstMessage) {
  const Topology topo = bus_topology(4.0);
  TransferManager tm(topo);
  // A starts at 0 (8e6 bytes). B (4e6 bytes) joins at 1 ms. A runs alone
  // for 1 ms (4e6 left), then both share: B's 4e6 at 2e6/ms -> both have
  // 2e6 left at t=3... A and B drain equally, so B (4e6) and A (4e6)
  // finish together at t = 1 + 8e6/4e6 = 3 ms? No: remaining at t=1 is
  // A=4e6, B=4e6, equal shares finish both at 1 + (4e6+4e6)/4e6 = 3 ms.
  tm.start(0, 8e6, 0, 1, 0.0);
  tm.start(1, 4e6, 2, 1, 1.0);
  tm.advance_to(0.0);
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 1.0);  // B's activation
  tm.advance_to(1.0);
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 3.0);
  const auto deliveries = tm.advance_to(3.0);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(deliveries[0].delivered_ms, 3.0);
  EXPECT_DOUBLE_EQ(tm.link_busy_ms()[0], 3.0);
}

TEST(TransferManager, LatencyDelaysTheDrainNotTheLink) {
  const Topology topo = bus_topology(4.0, /*latency_ms=*/0.5);
  TransferManager tm(topo);
  tm.start(0, 4e6, 0, 1, 0.0);
  // Activation at 0.5 (latency), drain 1 ms, delivery at 1.5.
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 0.5);
  tm.advance_to(0.5);
  const auto deliveries = tm.advance_to(1.5);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(deliveries[0].delivered_ms, 1.5);
  EXPECT_DOUBLE_EQ(tm.link_busy_ms()[0], 1.0);  // only the drain occupies
}

TEST(TransferManager, ZeroByteMessageDeliversAtActivation) {
  const Topology topo = bus_topology(4.0);
  TransferManager tm(topo);
  tm.start(3, 0.0, 0, 1, 2.0);
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 2.0);
  const auto deliveries = tm.advance_to(2.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(deliveries[0].delivered_ms, 2.0);
}

TEST(TransferManager, CrossbarPairsDoNotContend) {
  TopologySpec spec = parse_topology_spec("crossbar");
  spec.bandwidth_gbps = 4.0;
  const Topology topo(spec, 3, 4.0);
  TransferManager tm(topo);
  tm.start(0, 8e6, 0, 1, 0.0);
  tm.start(1, 8e6, 0, 2, 0.0);  // different ordered pair: private link
  tm.advance_to(0.0);
  const auto deliveries = tm.advance_to(2.0);  // both at full rate
  EXPECT_EQ(deliveries.size(), 2u);
}

TEST(TransferManager, RejectsLocalPairsAndTimeTravel) {
  const Topology topo = bus_topology(4.0);
  TransferManager tm(topo);
  EXPECT_THROW(tm.start(0, 1.0, 1, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(tm.start(0, -1.0, 0, 1, 0.0), std::invalid_argument);
  // Non-finite inputs: an infinite message used to deliver 0.1 ms after
  // its start, and a NaN start or clock left the fabric busy forever.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    EXPECT_THROW(tm.start(0, bad, 0, 1, 0.0), std::invalid_argument) << bad;
    EXPECT_THROW(tm.start(0, 1.0, 0, 1, bad), std::invalid_argument) << bad;
    EXPECT_THROW(tm.set_window_start(bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(tm.advance_to(nan), std::invalid_argument);
  EXPECT_FALSE(tm.busy());  // nothing rejected was queued
  tm.advance_to(5.0);
  EXPECT_THROW(tm.start(0, 1.0, 0, 1, 4.0), std::invalid_argument);
  EXPECT_THROW(tm.advance_to(4.0), std::invalid_argument);
  const Topology ideal(TopologySpec{}, 3, 4.0);
  EXPECT_THROW(TransferManager bad(ideal), std::invalid_argument);
}

// --- multi-hop max-min fair sharing ------------------------------------------

/// Three processors in a row (mesh:1x3): 0 -> 2 traverses both eastbound
/// links, so its messages couple the two otherwise independent segments.
Topology line_topology(double gbps, double latency_ms = 0.0) {
  TopologySpec spec = parse_topology_spec("mesh:1x3");
  spec.bandwidth_gbps = gbps;
  spec.latency_ms = latency_ms;
  return Topology(spec, 3, gbps);
}

TEST(TransferManager, HugeLatencyIsRejectedAndIdleAdvanceToInfReturns) {
  // Each hop's latency is finite, but the two-hop route's head latency
  // overflows: the message would never activate, and the engine's clock
  // would reach +inf.
  const Topology topo = line_topology(4.0, /*latency_ms=*/1e308);
  TransferManager tm(topo);
  EXPECT_THROW(tm.start(0, 1.0, 0, 2, 0.0), std::invalid_argument);
  EXPECT_FALSE(tm.busy());
  // An idle fabric has no event pending, so advancing to +inf returns.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(tm.next_event_ms(), inf);
  EXPECT_TRUE(tm.advance_to(inf).empty());
}

// Hand-computed water-filling, 3 messages over 2 links: A (0 -> 2, 8e6)
// shares link M0,0>M0,1 with B (0 -> 1, 4e6) and link M0,1>M0,2 with C
// (1 -> 2, 4e6). Both links fill at 4e6/2 = 2e6 bytes/ms, so every
// message drains at 2e6: B and C deliver at 2 ms; A then owns both links
// (4e6 bytes/ms) and its remaining 4e6 bytes land at 3 ms.
TEST(TransferManager, WaterFillingAcrossATwoLinkPath) {
  const Topology topo = line_topology(4.0);
  TransferManager tm(topo);
  tm.start(0, 8e6, 0, 2, 0.0);
  tm.start(1, 4e6, 0, 1, 0.0);
  tm.start(2, 4e6, 1, 2, 0.0);
  tm.advance_to(0.0);  // activate all three
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 2.0);
  auto deliveries = tm.advance_to(2.0);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0].tag, 1u);
  EXPECT_EQ(deliveries[1].tag, 2u);
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 3.0);
  deliveries = tm.advance_to(3.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].tag, 0u);
  EXPECT_EQ(deliveries[0].hops, 2u);
  EXPECT_DOUBLE_EQ(deliveries[0].delivered_ms, 3.0);
  // Both links were busy the whole 3 ms and carried A's bytes in full.
  EXPECT_DOUBLE_EQ(tm.link_busy_ms()[0], 3.0);
  EXPECT_DOUBLE_EQ(tm.link_delivered_bytes()[0], 12e6);  // A + B
}

// Progressive filling hands bottleneck slack to the flows that can use it:
// link 1 carries {A, B, C} (level 4e6/3), link 2 carries {A, D}. A is
// frozen by link 1 at 4/3e6, so D gets the rest of link 2 — 8/3e6, well
// above the naive per-link equal split of 2e6. B, C (4e6 bytes at 4/3e6)
// and D (8e6 bytes at 8/3e6) all deliver at 3 ms; A (8e6 at 4/3e6 = 4e6
// drained, then alone at 4e6/ms) delivers at 4 ms.
TEST(TransferManager, BottleneckSlackReallocatesMaxMin) {
  const Topology topo = line_topology(4.0);
  TransferManager tm(topo);
  tm.start(0, 8e6, 0, 2, 0.0);  // A: both links
  tm.start(1, 4e6, 0, 1, 0.0);  // B: link 1
  tm.start(2, 4e6, 0, 1, 0.0);  // C: link 1
  tm.start(3, 8e6, 1, 2, 0.0);  // D: link 2
  tm.advance_to(0.0);
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 3.0);
  auto deliveries = tm.advance_to(3.0);
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0].tag, 1u);
  EXPECT_EQ(deliveries[1].tag, 2u);
  EXPECT_EQ(deliveries[2].tag, 3u);  // D beat the equal split (4 ms)
  deliveries = tm.advance_to(4.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(deliveries[0].delivered_ms, 4.0);
  // Capacity invariant, exactly at the boundary: each link moved
  // 16e6 bytes in 4 busy ms at 4e6 bytes/ms.
  EXPECT_DOUBLE_EQ(tm.link_busy_ms()[0], 4.0);
  EXPECT_DOUBLE_EQ(tm.link_delivered_bytes()[0], 16e6);
  const LinkId second = topo.route(1, 2)[0];
  EXPECT_DOUBLE_EQ(tm.link_busy_ms()[second], 4.0);
  EXPECT_DOUBLE_EQ(tm.link_delivered_bytes()[second], 16e6);
}

TEST(TransferManager, MultiHopLatencyAccruesPerHop) {
  const Topology topo = line_topology(4.0, /*latency_ms=*/0.5);
  TransferManager tm(topo);
  tm.start(0, 4e6, 0, 2, 0.0);
  // Head latency 2 x 0.5 ms, then 1 ms of draining at full rate.
  EXPECT_DOUBLE_EQ(tm.next_event_ms(), 1.0);
  tm.advance_to(1.0);
  const auto deliveries = tm.advance_to(2.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(deliveries[0].delivered_ms, 2.0);
  EXPECT_DOUBLE_EQ(tm.link_busy_ms()[0], 1.0);  // only the drain occupies
}

// --- done_eps completion-tolerance contract ----------------------------------

TEST(TransferManager, DoneEpsContractIsAbsoluteFloorPlusRelativeTerm) {
  EXPECT_DOUBLE_EQ(done_eps(0.0), 1e-6);
  EXPECT_DOUBLE_EQ(done_eps(1e6), 1e-6);    // boundary: relative == floor
  EXPECT_DOUBLE_EQ(done_eps(4e12), 4.0);    // multi-TB: relative dominates
}

// A multi-GB message re-anchored by a stream of membership changes must
// deliver exactly once, never stall, and land within tolerance of the
// exact fluid finish time.
TEST(TransferManager, MultiGbMessageSurvivesManyRateChanges) {
  const Topology topo = bus_topology(4.0);
  TransferManager tm(topo);
  const double big = 8e9;  // 2000 ms alone at 4e6 bytes/ms
  tm.start(0, big, 0, 1, 0.0);
  // 100 small interlopers, each forcing two rate re-anchors.
  for (std::uint64_t i = 0; i < 100; ++i)
    tm.start(1 + i, 1e5, 2, 1, static_cast<TimeMs>(i));
  std::size_t big_deliveries = 0;
  std::size_t total = 0;
  TimeMs big_time = 0.0;
  TimeMs t = 0.0;
  while (tm.busy()) {
    const TimeMs e = tm.next_event_ms();
    ASSERT_TRUE(std::isfinite(e)) << "event loop stalled";
    ASSERT_GE(e, t);
    t = e;
    for (const Delivery& d : tm.advance_to(t)) {
      ++total;
      if (d.tag == 0) {
        ++big_deliveries;
        big_time = d.delivered_ms;
      }
    }
  }
  EXPECT_EQ(big_deliveries, 1u);
  EXPECT_EQ(total, 101u);
  // Work conservation: 8e9 + 100 x 1e5 bytes at 4e6 bytes/ms.
  EXPECT_NEAR(big_time, (8e9 + 100.0 * 1e5) / 4e6, 1e-3);
}

// Zero-byte (latency-only) messages deliver exactly once at activation —
// even when sharing the link with draining traffic.
TEST(TransferManager, ZeroByteMessagesDeliverOnceAtActivation) {
  const Topology topo = bus_topology(4.0, /*latency_ms=*/0.25);
  TransferManager tm(topo);
  tm.start(0, 8e6, 0, 1, 0.0);
  tm.start(1, 0.0, 2, 1, 1.0);  // activates at 1.25 mid-drain
  tm.advance_to(0.25);
  auto deliveries = tm.advance_to(1.25);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].tag, 1u);
  EXPECT_DOUBLE_EQ(deliveries[0].delivered_ms, 1.25);
  deliveries = tm.advance_to(10.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].tag, 0u);
  EXPECT_EQ(tm.delivered_count(), 2u);
}

// --- backlog prediction (link_drain_ms, the TransferEstimate feed) -----------

// The drain prediction is the max over a link's active flows of their
// projected remaining time at the CURRENT max-min rates — hand-computed
// here against the equal-split allocation on one shared link.
TEST(TransferManager, LinkDrainProjectsRemainingTimeAtCurrentRates) {
  const Topology topo = bus_topology(4.0);  // 4e6 bytes/ms
  TransferManager tm(topo);
  tm.start(0, 8e6, 0, 1, 0.0);
  tm.start(1, 4e6, 2, 1, 0.0);
  tm.advance_to(0.0);  // activate both: equal split, 2e6 bytes/ms each
  EXPECT_EQ(tm.link_flow_count(0), 2u);
  // max(8e6 / 2e6, 4e6 / 2e6) = 4 ms — message 0's projection at today's
  // rate, even though it will actually speed up once message 1 leaves.
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(0), 4.0);
  auto deliveries = tm.advance_to(2.0);  // message 1 done, 0 owns the link
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(tm.link_flow_count(0), 1u);
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(0), 1.0);  // 4e6 left at 4e6 bytes/ms
  tm.advance_to(3.0);
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(0), 0.0);  // idle link
}

// Messages still inside their route head latency hold no link share, so
// they must not count toward the drain prediction.
TEST(TransferManager, LinkDrainIgnoresPendingActivations) {
  const Topology topo = bus_topology(4.0, /*latency_ms=*/0.5);
  TransferManager tm(topo);
  tm.start(0, 4e6, 0, 1, 0.0);  // activates at 0.5
  tm.advance_to(0.25);
  EXPECT_EQ(tm.live_count(), 1u);
  EXPECT_EQ(tm.link_flow_count(0), 0u);
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(0), 0.0);
  tm.advance_to(0.5);
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(0), 1.0);  // now draining at 4e6/ms
}

// Two-hop path with a mid-flight arrival: the most-backlogged link of the
// shared route shifts from the first hop to the second as a competing flow
// joins, and back toward idle as flows complete. This is exactly the
// max-over-route scan transfer_estimate's link_queueing_ms performs.
TEST(TransferManager, LinkDrainBottleneckShiftsMidFlight) {
  const Topology topo = line_topology(4.0);  // mesh:1x3, two east links
  const LinkId first = topo.route(0, 1)[0];
  const LinkId second = topo.route(1, 2)[0];
  TransferManager tm(topo);
  tm.start(0, 8e6, 0, 2, 0.0);   // A: spans both links
  tm.start(1, 16e6, 0, 1, 0.0);  // B: first link only
  tm.advance_to(0.0);
  // Level 2e6 on the first link freezes A and B; the second link's slack
  // goes unused (A is its only flow). First hop is the bottleneck:
  // drain(first) = 16e6 / 2e6 = 8, drain(second) = 8e6 / 2e6 = 4.
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(first), 8.0);
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(second), 4.0);

  tm.start(2, 24e6, 1, 2, 2.0);  // C joins the second link mid-flight
  tm.advance_to(2.0);
  // Both links now carry two flows and saturate at the same 2e6 level:
  // remaining A = 4e6, B = 12e6, C = 24e6. The bottleneck link shifted:
  // drain(first) = 12e6 / 2e6 = 6, drain(second) = 24e6 / 2e6 = 12.
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(first), 6.0);
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(second), 12.0);

  auto deliveries = tm.advance_to(4.0);  // A (4e6 at 2e6/ms) delivers
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].tag, 0u);
  // Each survivor now owns its link at the full 4e6 bytes/ms:
  // B has 8e6 left, C has 20e6 left.
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(first), 2.0);
  EXPECT_DOUBLE_EQ(tm.link_drain_ms(second), 5.0);
}

// --- observation-window clipping ---------------------------------------------

// The steady-state accessors must exclude warmup traffic: busy time is
// clipped to [window, ...) and only messages delivered inside the window
// count, exactly like processor busy time in the stream metrics.
TEST(TransferManager, WindowClipsBusyAndBytes) {
  const Topology topo = bus_topology(4.0);
  TransferManager tm(topo);
  tm.set_window_start(3.0);
  tm.start(0, 8e6, 0, 1, 0.0);   // drains [0, 2] — fully warmup
  tm.start(1, 8e6, 0, 1, 2.5);   // drains [2.5, 4.5] — straddles
  tm.advance_to(10.0);
  EXPECT_DOUBLE_EQ(tm.link_busy_ms()[0], 4.0);            // whole run
  EXPECT_DOUBLE_EQ(tm.link_busy_in_window_ms()[0], 1.5);  // [3, 4.5]
  EXPECT_DOUBLE_EQ(tm.link_delivered_bytes()[0], 16e6);
  EXPECT_DOUBLE_EQ(tm.link_bytes_in_window()[0], 8e6);
  EXPECT_EQ(tm.link_delivered_counts()[0], 2u);
  EXPECT_EQ(tm.link_counts_in_window()[0], 1u);
  EXPECT_EQ(tm.link_hops_in_window()[0], 1u);
  // The window is part of the run's setup, not something to move later.
  EXPECT_THROW(tm.set_window_start(1.0), std::logic_error);
}

}  // namespace
}  // namespace apt::net
