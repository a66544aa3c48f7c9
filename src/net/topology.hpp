// Interconnect topologies: which links a processor-pair transfer occupies,
// and how fast they are.
//
// The paper's cost model prices every transfer against an uncontended
// point-to-point PCIe rate, so schedules implicitly assume an infinitely
// parallel fabric. This module makes the fabric a first-class, *contended*
// resource: a Topology maps each ordered processor pair to a *route* — a
// sequence of shared links with a bandwidth and latency (or declares the
// pair local, i.e. free) — and net::TransferManager simulates the messages
// that flow over those links with max-min fair bandwidth sharing.
//
// Seven topology kinds:
//   ideal     no links at all — transfers are whatever the cost model says,
//             uncontended (the pre-net engine behaviour, bit for bit)
//   bus       one link shared by every inter-processor transfer
//   crossbar  one private link per ordered processor pair (full bisection;
//             contention only between transfers of the same pair)
//   hier      two-level socket model: processors are grouped into sockets
//             of `socket_size`; intra-socket transfers are local (free),
//             inter-socket transfers share one link per ordered socket pair
//   ring      N positions on a cycle (default: one per processor), one
//             directed link per adjacent pair in each direction; routes
//             take the shorter arc (ties clockwise), so transfers occupy
//             up to N/2 links at once
//   mesh      R x C grid with 4-neighbour directed links; processors fill
//             cells row-major and routes use dimension-order (X then Y)
//             routing
//   fattree   K-ary tree with processors at the leaves and switches above;
//             each tree edge is an up + a down link, routes climb to the
//             lowest common ancestor and descend — the root is the
//             bisection bottleneck
//
// The first four kinds are single-hop (every route has at most one link);
// ring/mesh/fattree are routed kinds whose shortest-path routes are
// precomputed per ordered processor pair at construction.
//
// This header sits below sim/ in the layer stack (sim/system.hpp embeds a
// Topology), so it deliberately redefines the two primitive aliases instead
// of including sim headers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace apt::net {

using ProcId = std::uint32_t;   ///< == sim::ProcId
using TimeMs = double;          ///< == sim::TimeMs
using LinkId = std::uint32_t;
inline constexpr LinkId kNoLink = static_cast<LinkId>(-1);

enum class TopologyKind { Ideal, Bus, Crossbar, Hierarchical, Ring, Mesh,
                          FatTree };

const char* to_string(TopologyKind kind) noexcept;

/// Everything needed to instantiate a Topology for any processor count.
struct TopologySpec {
  TopologyKind kind = TopologyKind::Ideal;

  /// Per-link bandwidth; 0 (the default) tracks the owning system's
  /// link_rate_gbps, so a sweep's rate axis doubles as a bandwidth axis.
  /// (Per-link heterogeneous bandwidths are a ROADMAP follow-on — today
  /// every link of a fabric shares one rate.)
  double bandwidth_gbps = 0.0;

  /// Fixed per-link head latency; a route's head latency is the sum over
  /// its hops, after which bytes flow end to end.
  TimeMs latency_ms = 0.0;

  /// Hierarchical only: processors per socket (>= 1).
  std::size_t socket_size = 2;

  /// Ring only: positions on the cycle; 0 (default) means one per
  /// processor. May exceed the processor count (spare positions relay).
  std::size_t ring_size = 0;

  /// Mesh only: grid shape (both >= 1, rows x cols >= processor count).
  std::size_t mesh_rows = 0;
  std::size_t mesh_cols = 0;

  /// FatTree only: tree arity (>= 2).
  std::size_t fattree_arity = 2;

  /// Display label, e.g. "ideal", "bus", "hier2", "ring6", "mesh2x3",
  /// "fattree2". Round-trips through parse_topology_spec().
  std::string label() const;

  /// Throws std::invalid_argument on negative or non-finite knobs or
  /// malformed shape parameters (zero socket/ring size, zero mesh
  /// dimension, arity < 2).
  void validate() const;
};

/// Parses a topology name: "ideal", "bus", "crossbar", "hier[:S]" /
/// "socket[:S]" (S = socket size), "ring[:N]" (N = ring positions),
/// "mesh:RxC", or "fattree[:K]" (K = arity). The label() forms ("hier2",
/// "ring6", "mesh2x3", "fattree2") parse too, so exported topology columns
/// round-trip back through --topology. Case-insensitive, trimmed. Throws
/// std::invalid_argument naming the known kinds on an unknown kind and a
/// clear message on malformed shape arguments ("mesh:3x", "fattree:0") —
/// never a silent fallback. Bandwidth and latency stay at their defaults —
/// callers set them from their own flags.
TopologySpec parse_topology_spec(const std::string& name);

/// A spec instantiated for a concrete processor count: the link and route
/// tables the engines and the transfer manager index.
class Topology {
 public:
  /// Lightweight view of one route's links in traversal order (valid while
  /// the Topology lives). Empty == the pair is local.
  struct Route {
    const LinkId* links = nullptr;
    std::size_t hops = 0;

    const LinkId* begin() const noexcept { return links; }
    const LinkId* end() const noexcept { return links + hops; }
    bool empty() const noexcept { return hops == 0; }
    LinkId operator[](std::size_t i) const noexcept { return links[i]; }
  };

  /// `default_bandwidth_gbps` substitutes a spec bandwidth of 0 (the
  /// "track the system link rate" convention). Throws std::invalid_argument
  /// on an invalid spec, zero processors, a non-positive resolved bandwidth
  /// for a contended kind, or a shape too small for the processor count.
  Topology(const TopologySpec& spec, std::size_t proc_count,
           double default_bandwidth_gbps);

  const TopologySpec& spec() const noexcept { return spec_; }
  std::size_t proc_count() const noexcept { return proc_count_; }
  std::size_t link_count() const noexcept { return link_count_; }

  /// True for every kind but Ideal: transfers occupy shared links and the
  /// engines must run their contention-aware comm phase.
  bool contended() const noexcept {
    return spec_.kind != TopologyKind::Ideal;
  }

  /// The links a from -> to transfer traverses, in order; empty when the
  /// pair is local (same processor, same socket, or an ideal topology).
  Route route(ProcId from, ProcId to) const;

  /// Single-hop convenience: the one link of a from -> to route, kNoLink
  /// when local. Throws std::logic_error on a multi-hop route (routed
  /// kinds) — those callers must use route().
  LinkId link(ProcId from, ProcId to) const;

  bool is_local(ProcId from, ProcId to) const {
    return route(from, to).empty();
  }

  /// Longest route (in hops) over all processor pairs; 0 under ideal.
  std::size_t diameter_hops() const noexcept { return diameter_hops_; }

  double bandwidth_gbps(LinkId link) const;
  TimeMs latency_ms(LinkId link) const;
  std::string link_name(LinkId link) const;

  /// Head latency of the from -> to route: the sum over its hops (0 when
  /// local). Precomputed per pair.
  TimeMs route_latency_ms(ProcId from, ProcId to) const;

  /// Bandwidth of the from -> to route's bottleneck link (meaningless when
  /// local). sim::TopologyCostModel prices a payload as the route's head
  /// latency plus the payload at this rate: the uncontended figure policies
  /// plan with, which actual transfers can only exceed (max-min fair
  /// sharing under contention). Precomputed per pair.
  double route_bandwidth_gbps(ProcId from, ProcId to) const;

  /// The from -> to route's bottleneck link: the minimum-bandwidth hop,
  /// earliest in traversal order on ties — the link whose rate
  /// route_bandwidth_gbps reports. kNoLink when the pair is local.
  /// Precomputed per pair.
  LinkId bottleneck_link(ProcId from, ProcId to) const;

 private:
  void build_single_hop_routes(const std::vector<LinkId>& link_of);
  void build_ring();
  void build_mesh();
  void build_fattree();
  void flatten_routes(std::vector<std::vector<LinkId>> routes);
  /// from * P + to; throws std::out_of_range on an unknown processor.
  std::size_t pair_index(ProcId from, ProcId to) const;

  TopologySpec spec_;
  std::size_t proc_count_ = 0;
  std::size_t link_count_ = 0;
  double bandwidth_gbps_ = 0.0;
  std::size_t diameter_hops_ = 0;
  std::vector<std::string> link_names_;     ///< [link]
  std::vector<std::uint32_t> route_begin_;  ///< [from * P + to] into data
  std::vector<std::uint32_t> route_hops_;   ///< [from * P + to]
  std::vector<LinkId> route_data_;          ///< flattened route links
  std::vector<TimeMs> route_latency_ms_;    ///< [pair] head latency
  std::vector<double> route_bandwidth_gbps_;  ///< [pair] bottleneck rate
  std::vector<LinkId> route_bottleneck_;    ///< [pair] bottleneck link
};

}  // namespace apt::net
