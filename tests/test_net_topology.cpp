// Unit tests of net::Topology: spec parsing, link tables per kind,
// locality, and the uncontended transfer estimate.
#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace apt::net {
namespace {

/// The uncontended price of moving `bytes` over the from -> to route, as
/// sim::TopologyCostModel's pair tables charge it: 0 when the pair is
/// local, else the route's head latency plus the bytes at its bottleneck
/// rate (GB/s == 1e6 bytes/ms).
TimeMs route_price_ms(const Topology& topo, double bytes, ProcId from,
                      ProcId to) {
  if (topo.is_local(from, to)) return 0.0;
  return topo.route_latency_ms(from, to) +
         bytes / (topo.route_bandwidth_gbps(from, to) * 1e6);
}

TEST(TopologySpec, ParseKnownKinds) {
  EXPECT_EQ(parse_topology_spec("ideal").kind, TopologyKind::Ideal);
  EXPECT_EQ(parse_topology_spec("bus").kind, TopologyKind::Bus);
  EXPECT_EQ(parse_topology_spec("crossbar").kind, TopologyKind::Crossbar);
  EXPECT_EQ(parse_topology_spec("xbar").kind, TopologyKind::Crossbar);
  EXPECT_EQ(parse_topology_spec("hier").kind, TopologyKind::Hierarchical);
  EXPECT_EQ(parse_topology_spec("socket").kind, TopologyKind::Hierarchical);
  EXPECT_EQ(parse_topology_spec("  BUS  ").kind, TopologyKind::Bus);
}

TEST(TopologySpec, ParseSocketSize) {
  const TopologySpec spec = parse_topology_spec("hier:4");
  EXPECT_EQ(spec.kind, TopologyKind::Hierarchical);
  EXPECT_EQ(spec.socket_size, 4u);
  EXPECT_EQ(parse_topology_spec("hier").socket_size, 2u);  // default
}

TEST(TopologySpec, LabelsRoundTripThroughTheParser) {
  for (const std::string name : {"ideal", "bus", "crossbar", "hier:3"}) {
    const TopologySpec spec = parse_topology_spec(name);
    const TopologySpec reparsed = parse_topology_spec(spec.label());
    EXPECT_EQ(reparsed.kind, spec.kind) << name;
    EXPECT_EQ(reparsed.socket_size, spec.socket_size) << name;
  }
}

TEST(TopologySpec, ParseRejectsUnknown) {
  EXPECT_THROW(parse_topology_spec("torus"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("hier:0"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("hier:x"), std::invalid_argument);
  // strtoul would wrap a negative to ULONG_MAX (one giant socket — a
  // silently free-communication machine); the parser must reject it.
  EXPECT_THROW(parse_topology_spec("hier:-1"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("hier:2x"), std::invalid_argument);
}

TEST(TopologySpec, Labels) {
  EXPECT_EQ(parse_topology_spec("ideal").label(), "ideal");
  EXPECT_EQ(parse_topology_spec("bus").label(), "bus");
  EXPECT_EQ(parse_topology_spec("hier:3").label(), "hier3");
}

TEST(Topology, IdealHasNoLinksAndIsUncontended) {
  const Topology topo(TopologySpec{}, 3, 4.0);
  EXPECT_FALSE(topo.contended());
  EXPECT_EQ(topo.link_count(), 0u);
  for (ProcId a = 0; a < 3; ++a)
    for (ProcId b = 0; b < 3; ++b) EXPECT_TRUE(topo.is_local(a, b));
}

TEST(Topology, BusSharesOneLink) {
  const Topology topo(parse_topology_spec("bus"), 3, 4.0);
  EXPECT_TRUE(topo.contended());
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(topo.link(0, 1), 0u);
  EXPECT_EQ(topo.link(2, 0), 0u);
  EXPECT_EQ(topo.link(1, 1), kNoLink);  // same processor: local
  EXPECT_EQ(topo.link_name(0), "bus");
}

TEST(Topology, CrossbarHasOneLinkPerOrderedPair) {
  const Topology topo(parse_topology_spec("crossbar"), 3, 4.0);
  EXPECT_EQ(topo.link_count(), 6u);  // 3 * 2 ordered pairs
  // Every ordered pair gets a distinct link.
  EXPECT_NE(topo.link(0, 1), topo.link(1, 0));
  EXPECT_NE(topo.link(0, 1), topo.link(0, 2));
  EXPECT_EQ(topo.link(0, 0), kNoLink);
}

TEST(Topology, HierarchicalSocketsAreLocal) {
  TopologySpec spec = parse_topology_spec("hier:2");
  const Topology topo(spec, 4, 4.0);  // sockets {0,1} and {2,3}
  EXPECT_TRUE(topo.is_local(0, 1));
  EXPECT_TRUE(topo.is_local(3, 2));
  EXPECT_FALSE(topo.is_local(1, 2));
  EXPECT_EQ(topo.link_count(), 2u);  // S0>S1 and S1>S0
  EXPECT_EQ(topo.link(0, 2), topo.link(1, 3));  // same socket pair
  EXPECT_NE(topo.link(0, 2), topo.link(2, 0));  // directions differ
  EXPECT_EQ(topo.link_name(topo.link(0, 2)), "S0>S1");
}

TEST(Topology, BandwidthDefaultTracksLinkRate) {
  TopologySpec spec = parse_topology_spec("bus");
  const Topology tracking(spec, 3, 8.0);
  EXPECT_DOUBLE_EQ(tracking.bandwidth_gbps(0), 8.0);
  spec.bandwidth_gbps = 2.0;
  const Topology fixed(spec, 3, 8.0);
  EXPECT_DOUBLE_EQ(fixed.bandwidth_gbps(0), 2.0);
}

TEST(Topology, TransferEstimateIsLatencyPlusBytesOverBandwidth) {
  TopologySpec spec = parse_topology_spec("bus");
  spec.bandwidth_gbps = 4.0;
  spec.latency_ms = 0.5;
  const Topology topo(spec, 2, 4.0);
  // 4 GB/s == 4e6 bytes/ms; 8e6 bytes -> 2 ms + 0.5 ms latency.
  EXPECT_DOUBLE_EQ(route_price_ms(topo, 8e6, 0, 1), 2.5);
  EXPECT_DOUBLE_EQ(route_price_ms(topo, 8e6, 1, 1), 0.0);
}

TEST(Topology, RejectsBadConfigurations) {
  EXPECT_THROW(Topology(parse_topology_spec("bus"), 0, 4.0),
               std::invalid_argument);
  EXPECT_THROW(Topology(parse_topology_spec("bus"), 2, 0.0),
               std::invalid_argument);
  TopologySpec negative;
  negative.latency_ms = -1.0;
  EXPECT_THROW(Topology(negative, 2, 4.0), std::invalid_argument);
  // A hier socket covering every processor would make all communication
  // free under a nominally contended fabric — rejected on multi-processor
  // platforms, allowed on the degenerate single-processor one.
  EXPECT_THROW(Topology(parse_topology_spec("hier:8"), 3, 4.0),
               std::invalid_argument);
  EXPECT_NO_THROW(Topology(parse_topology_spec("hier:8"), 1, 4.0));
  const Topology topo(parse_topology_spec("bus"), 2, 4.0);
  EXPECT_THROW(topo.link(2, 0), std::out_of_range);
  EXPECT_THROW(topo.bandwidth_gbps(1), std::out_of_range);
  // Non-finite knobs: NaN slips past a plain `< 0` test. A NaN bandwidth
  // used to fall back to the default rate, and a NaN or infinite latency
  // never let a message activate.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf}) {
    TopologySpec latency = parse_topology_spec("mesh:2x2");
    latency.latency_ms = bad;
    EXPECT_THROW(Topology(latency, 4, 4.0), std::invalid_argument) << bad;
    TopologySpec bandwidth = parse_topology_spec("mesh:2x2");
    bandwidth.bandwidth_gbps = bad;
    EXPECT_THROW(Topology(bandwidth, 4, 4.0), std::invalid_argument) << bad;
  }
}

// --- routed kinds: ring / mesh / fattree -------------------------------------

TEST(TopologySpec, ParseRoutedKinds) {
  EXPECT_EQ(parse_topology_spec("ring").kind, TopologyKind::Ring);
  EXPECT_EQ(parse_topology_spec("ring").ring_size, 0u);  // tracks proc count
  EXPECT_EQ(parse_topology_spec("ring:6").ring_size, 6u);
  EXPECT_EQ(parse_topology_spec("ring6").ring_size, 6u);  // label() form
  const TopologySpec mesh = parse_topology_spec("mesh:2x3");
  EXPECT_EQ(mesh.kind, TopologyKind::Mesh);
  EXPECT_EQ(mesh.mesh_rows, 2u);
  EXPECT_EQ(mesh.mesh_cols, 3u);
  EXPECT_EQ(parse_topology_spec("mesh2x3").mesh_rows, 2u);
  EXPECT_EQ(parse_topology_spec("fattree").fattree_arity, 2u);
  EXPECT_EQ(parse_topology_spec("fattree:3").fattree_arity, 3u);
  EXPECT_EQ(parse_topology_spec("fattree2").fattree_arity, 2u);
}

TEST(TopologySpec, ParseRejectsMalformedShapes) {
  // Malformed shape arguments must throw — never fall back silently.
  EXPECT_THROW(parse_topology_spec("mesh"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("mesh:3x"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("mesh:x3"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("mesh:0x2"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("mesh:2x0"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("mesh:2x-3"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("mesh:2x3x4"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("fattree:0"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("fattree:1"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("fattree:x"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("ring:0"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("ring:1"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("ring:2x"), std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("ring:-4"), std::invalid_argument);
  // Out-of-range numbers must fail here with a clear parse error, not
  // saturate through strtoul and blow up in the link-table constructor.
  EXPECT_THROW(parse_topology_spec("ring:18446744073709551615"),
               std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("ring:99999999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("mesh:2x18446744073709551615"),
               std::invalid_argument);
  EXPECT_THROW(parse_topology_spec("hier:10000001"), std::invalid_argument);
}

TEST(TopologySpec, RoutedLabelsRoundTripThroughTheParser) {
  for (const std::string name :
       {"ring", "ring:6", "mesh:2x3", "fattree:3"}) {
    const TopologySpec spec = parse_topology_spec(name);
    const TopologySpec reparsed = parse_topology_spec(spec.label());
    EXPECT_EQ(reparsed.kind, spec.kind) << name;
    EXPECT_EQ(reparsed.ring_size, spec.ring_size) << name;
    EXPECT_EQ(reparsed.mesh_rows, spec.mesh_rows) << name;
    EXPECT_EQ(reparsed.mesh_cols, spec.mesh_cols) << name;
    EXPECT_EQ(reparsed.fattree_arity, spec.fattree_arity) << name;
  }
  EXPECT_EQ(parse_topology_spec("ring:6").label(), "ring6");
  EXPECT_EQ(parse_topology_spec("mesh:2x3").label(), "mesh2x3");
  EXPECT_EQ(parse_topology_spec("fattree:3").label(), "fattree3");
}

TEST(Topology, RingRoutesTakeTheShorterArc) {
  // 4 processors on a 4-ring: clockwise links 0..3 then counter-clockwise
  // 4..7, both directions one link per adjacent pair.
  const Topology topo(parse_topology_spec("ring"), 4, 4.0);
  EXPECT_EQ(topo.link_count(), 8u);
  const Topology::Route one_hop = topo.route(0, 1);
  ASSERT_EQ(one_hop.hops, 1u);
  EXPECT_EQ(topo.link_name(one_hop[0]), "R0>R1");
  // Opposite corner: tie between the arcs resolves clockwise.
  const Topology::Route tie = topo.route(0, 2);
  ASSERT_EQ(tie.hops, 2u);
  EXPECT_EQ(topo.link_name(tie[0]), "R0>R1");
  EXPECT_EQ(topo.link_name(tie[1]), "R1>R2");
  // The short way round is counter-clockwise.
  const Topology::Route back = topo.route(0, 3);
  ASSERT_EQ(back.hops, 1u);
  EXPECT_EQ(topo.link_name(back[0]), "R0>R3");
  EXPECT_EQ(topo.diameter_hops(), 2u);
  // link() serves single-hop routes and refuses multi-hop ones.
  EXPECT_EQ(topo.link(0, 1), one_hop[0]);
  EXPECT_THROW(topo.link(0, 2), std::logic_error);
  EXPECT_FALSE(topo.is_local(0, 2));
  EXPECT_TRUE(topo.is_local(1, 1));
}

TEST(Topology, RingSparePositionsRelay) {
  // Three processors on a 6-ring: 0 -> 2 still walks clockwise over the
  // occupied arc; the spare positions 3..5 carry the long way round.
  TopologySpec spec = parse_topology_spec("ring:6");
  const Topology topo(spec, 3, 4.0);
  EXPECT_EQ(topo.link_count(), 12u);
  EXPECT_EQ(topo.route(0, 2).hops, 2u);
  EXPECT_EQ(topo.route(2, 0).hops, 2u);  // ccw beats the 4-hop cw arc
  // A ring smaller than the platform cannot seat every processor.
  EXPECT_THROW(Topology(parse_topology_spec("ring:2"), 3, 4.0),
               std::invalid_argument);
}

TEST(Topology, MeshUsesDimensionOrderRouting) {
  // 2x2 grid, processors fill row-major: P0=(0,0), P1=(0,1), P2=(1,0),
  // P3=(1,1). X (column) first, then Y.
  const Topology topo(parse_topology_spec("mesh:2x2"), 4, 4.0);
  EXPECT_EQ(topo.link_count(), 8u);
  const Topology::Route diag = topo.route(0, 3);
  ASSERT_EQ(diag.hops, 2u);
  EXPECT_EQ(topo.link_name(diag[0]), "M0,0>M0,1");
  EXPECT_EQ(topo.link_name(diag[1]), "M0,1>M1,1");
  const Topology::Route reverse = topo.route(3, 0);
  ASSERT_EQ(reverse.hops, 2u);
  EXPECT_EQ(topo.link_name(reverse[0]), "M1,1>M1,0");
  EXPECT_EQ(topo.link_name(reverse[1]), "M1,0>M0,0");
  EXPECT_EQ(topo.route(0, 1).hops, 1u);
  EXPECT_EQ(topo.diameter_hops(), 2u);
  // A 1x4 row degenerates to a line with longer routes.
  const Topology line(parse_topology_spec("mesh:1x4"), 4, 4.0);
  EXPECT_EQ(line.route(0, 3).hops, 3u);
  // Too few cells for the platform.
  EXPECT_THROW(Topology(parse_topology_spec("mesh:1x2"), 3, 4.0),
               std::invalid_argument);
}

TEST(Topology, FatTreeClimbsToTheLowestCommonAncestor) {
  // Arity-2 tree over 4 leaves: S1_0 covers {P0,P1}, S1_1 covers {P2,P3},
  // S2_0 is the root. Sibling leaves meet one level up; the far pair
  // crosses the root.
  const Topology topo(parse_topology_spec("fattree:2"), 4, 4.0);
  EXPECT_EQ(topo.link_count(), 12u);  // 4 + 2 tree edges, up + down each
  const Topology::Route sibling = topo.route(0, 1);
  ASSERT_EQ(sibling.hops, 2u);
  EXPECT_EQ(topo.link_name(sibling[0]), "P0>S1_0");
  EXPECT_EQ(topo.link_name(sibling[1]), "S1_0>P1");
  const Topology::Route cross = topo.route(0, 2);
  ASSERT_EQ(cross.hops, 4u);
  EXPECT_EQ(topo.link_name(cross[0]), "P0>S1_0");
  EXPECT_EQ(topo.link_name(cross[1]), "S1_0>S2_0");
  EXPECT_EQ(topo.link_name(cross[2]), "S2_0>S1_1");
  EXPECT_EQ(topo.link_name(cross[3]), "S1_1>P2");
  EXPECT_EQ(topo.diameter_hops(), 4u);
  // A wider arity flattens the tree: 4 leaves under one switch.
  const Topology flat(parse_topology_spec("fattree:4"), 4, 4.0);
  EXPECT_EQ(flat.route(0, 3).hops, 2u);
  EXPECT_EQ(flat.diameter_hops(), 2u);
}

// The per-pair latency and bottleneck-bandwidth tables must equal, bit for
// bit, the per-hop loops they replaced, which this test keeps as its
// reference: latency summed hop by hop in route order from 0, and the
// minimum hop bandwidth.
TEST(Topology, PairTablesMatchThePerHopLoopsBitwise) {
  struct Shape {
    const char* spec;
    std::size_t procs;
  };
  const Shape shapes[] = {{"bus", 4},      {"crossbar", 4},  {"hier:2", 4},
                          {"ring", 4},     {"ring:6", 4},    {"mesh:3x4", 12},
                          {"fattree:2", 8}, {"fattree:3", 9}};
  for (const Shape& shape : shapes) {
    TopologySpec spec = parse_topology_spec(shape.spec);
    spec.bandwidth_gbps = 1.0;
    spec.latency_ms = 0.1;  // 0.1 + 0.1 + 0.1 != 0.3: the hop order shows
    const Topology topo(spec, shape.procs, 1.0);
    const auto procs = static_cast<ProcId>(shape.procs);
    for (ProcId from = 0; from < procs; ++from) {
      for (ProcId to = 0; to < procs; ++to) {
        const Topology::Route r = topo.route(from, to);
        TimeMs latency = 0.0;
        double bottleneck = 0.0;
        if (!r.empty()) {
          bottleneck = topo.bandwidth_gbps(r[0]);
          for (const LinkId l : r) {
            latency += topo.latency_ms(l);
            bottleneck = std::min(bottleneck, topo.bandwidth_gbps(l));
          }
        }
        EXPECT_EQ(topo.route_latency_ms(from, to), latency)
            << shape.spec << " " << from << "->" << to;
        EXPECT_EQ(topo.route_bandwidth_gbps(from, to), bottleneck)
            << shape.spec << " " << from << "->" << to;
      }
    }
    // Local pairs are free.
    EXPECT_EQ(topo.route_latency_ms(1, 1), 0.0) << shape.spec;
    // The lookups keep the range check.
    EXPECT_THROW(topo.route_latency_ms(procs, 0), std::out_of_range);
    EXPECT_THROW(topo.route_latency_ms(0, procs), std::out_of_range);
    EXPECT_THROW(topo.route_bandwidth_gbps(procs, 0), std::out_of_range);
  }
}

TEST(Topology, RoutedTransferEstimateUsesPathLatencyAndBottleneck) {
  // 2 hops on a 4-ring: head latency accrues per hop, bytes at the (here
  // uniform) bottleneck rate. 8e6 bytes at 4e6 bytes/ms + 2 x 0.5 ms.
  TopologySpec spec = parse_topology_spec("ring");
  spec.bandwidth_gbps = 4.0;
  spec.latency_ms = 0.5;
  const Topology topo(spec, 4, 4.0);
  EXPECT_DOUBLE_EQ(topo.route_latency_ms(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(route_price_ms(topo, 8e6, 0, 2), 3.0);
  EXPECT_DOUBLE_EQ(route_price_ms(topo, 8e6, 0, 1), 2.5);  // one hop
  EXPECT_DOUBLE_EQ(route_price_ms(topo, 8e6, 2, 2), 0.0);  // local
}

}  // namespace
}  // namespace apt::net
