#include "net/topology.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace apt::net {

const char* to_string(TopologyKind kind) noexcept {
  switch (kind) {
    case TopologyKind::Ideal:
      return "ideal";
    case TopologyKind::Bus:
      return "bus";
    case TopologyKind::Crossbar:
      return "crossbar";
    case TopologyKind::Hierarchical:
      return "hier";
    case TopologyKind::Ring:
      return "ring";
    case TopologyKind::Mesh:
      return "mesh";
    case TopologyKind::FatTree:
      return "fattree";
  }
  return "?";
}

std::string TopologySpec::label() const {
  std::string out = to_string(kind);
  if (kind == TopologyKind::Hierarchical)
    out += std::to_string(socket_size);
  else if (kind == TopologyKind::Ring && ring_size > 0)
    out += std::to_string(ring_size);
  else if (kind == TopologyKind::Mesh)
    out += std::to_string(mesh_rows) + "x" + std::to_string(mesh_cols);
  else if (kind == TopologyKind::FatTree)
    out += std::to_string(fattree_arity);
  return out;
}

void TopologySpec::validate() const {
  // NaN passes a plain `< 0` test; a NaN or infinite latency never lets a
  // message activate.
  if (!std::isfinite(bandwidth_gbps) || bandwidth_gbps < 0.0)
    throw std::invalid_argument(
        "TopologySpec: bandwidth must be finite and >= 0");
  if (!std::isfinite(latency_ms) || latency_ms < 0.0)
    throw std::invalid_argument(
        "TopologySpec: latency must be finite and >= 0");
  if (kind == TopologyKind::Hierarchical && socket_size == 0)
    throw std::invalid_argument("TopologySpec: socket size must be >= 1");
  if (kind == TopologyKind::Mesh && (mesh_rows == 0 || mesh_cols == 0))
    throw std::invalid_argument(
        "TopologySpec: mesh needs rows >= 1 and cols >= 1");
  if (kind == TopologyKind::FatTree && fattree_arity < 2)
    throw std::invalid_argument("TopologySpec: fattree arity must be >= 2");
}

namespace {

/// Largest accepted shape number (ring positions, mesh rows/cols, fattree
/// arity). Far beyond any simulable platform; mainly a guard so absurd
/// inputs fail here with a clear message instead of exhausting memory in
/// the link-table constructor.
constexpr unsigned long kMaxShapeNumber = 1000000;

/// Digits-only size parse: strtoul would silently wrap "-1" to ULONG_MAX
/// (which for hier collapses every processor into one socket — a free-comm
/// machine), so anything but [0-9]+ is rejected outright, as are
/// out-of-range values (strtoul saturates those to ULONG_MAX and sets
/// ERANGE).
std::size_t parse_shape_number(const std::string& arg, const std::string& token,
                               const char* what, std::size_t minimum) {
  char* end = nullptr;
  unsigned long v = 0;
  if (!arg.empty() &&
      arg.find_first_not_of("0123456789") == std::string::npos) {
    errno = 0;
    v = std::strtoul(arg.c_str(), &end, 10);
    if (errno == ERANGE) end = nullptr;
  }
  if (end == nullptr || *end != '\0' || v < minimum || v > kMaxShapeNumber)
    throw std::invalid_argument("parse_topology_spec: bad " +
                                std::string(what) + " in '" + token + "'");
  return static_cast<std::size_t>(v);
}

/// Strips `prefix` (and an optional ':' after it) from `token`; returns
/// false when the token does not start with the prefix. The remainder is
/// the shape argument ("" when absent), so both the flag form ("hier:4")
/// and the label() form ("hier4") parse.
bool split_shape(const std::string& token, const std::string& prefix,
                 std::string& arg) {
  if (token.compare(0, prefix.size(), prefix) != 0) return false;
  arg = token.substr(prefix.size());
  if (!arg.empty() && arg.front() == ':') arg.erase(0, 1);
  return true;
}

}  // namespace

TopologySpec parse_topology_spec(const std::string& name) {
  const std::string token = util::to_lower(util::trim(name));
  TopologySpec spec;
  if (token == "ideal" || token.empty()) {
    spec.kind = TopologyKind::Ideal;
    return spec;
  }
  if (token == "bus") {
    spec.kind = TopologyKind::Bus;
    return spec;
  }
  if (token == "crossbar" || token == "xbar") {
    spec.kind = TopologyKind::Crossbar;
    return spec;
  }
  std::string arg;
  if (split_shape(token, "hier", arg) || split_shape(token, "socket", arg)) {
    spec.kind = TopologyKind::Hierarchical;
    if (!arg.empty())
      spec.socket_size = parse_shape_number(arg, token, "socket size", 1);
    return spec;
  }
  // "fattree" before "ring"/"mesh" is irrelevant (no shared prefixes), but
  // each shape argument is validated here so a malformed spec surfaces as
  // a clear CLI error instead of a silent fallback.
  if (split_shape(token, "fattree", arg)) {
    spec.kind = TopologyKind::FatTree;
    if (!arg.empty())
      spec.fattree_arity =
          parse_shape_number(arg, token, "fattree arity (need >= 2)", 2);
    return spec;
  }
  if (split_shape(token, "ring", arg)) {
    spec.kind = TopologyKind::Ring;
    if (!arg.empty())
      spec.ring_size =
          parse_shape_number(arg, token, "ring size (need >= 2)", 2);
    return spec;
  }
  if (split_shape(token, "mesh", arg)) {
    spec.kind = TopologyKind::Mesh;
    const std::size_t x = arg.find('x');
    if (arg.empty() || x == std::string::npos)
      throw std::invalid_argument(
          "parse_topology_spec: mesh needs a RxC shape, e.g. 'mesh:2x3' "
          "(got '" + token + "')");
    spec.mesh_rows =
        parse_shape_number(arg.substr(0, x), token, "mesh rows", 1);
    spec.mesh_cols =
        parse_shape_number(arg.substr(x + 1), token, "mesh cols", 1);
    return spec;
  }
  throw std::invalid_argument(
      "parse_topology_spec: unknown topology '" + name +
      "' (known: ideal, bus, crossbar, hier[:S], ring[:N], mesh:RxC, "
      "fattree[:K])");
}

Topology::Topology(const TopologySpec& spec, std::size_t proc_count,
                   double default_bandwidth_gbps)
    : spec_(spec), proc_count_(proc_count) {
  spec_.validate();
  if (proc_count_ == 0)
    throw std::invalid_argument("Topology: need at least one processor");
  bandwidth_gbps_ = spec_.bandwidth_gbps > 0.0 ? spec_.bandwidth_gbps
                                               : default_bandwidth_gbps;
  if (contended() && !(bandwidth_gbps_ > 0.0))
    throw std::invalid_argument(
        "Topology: contended kinds need a positive bandwidth");

  const std::size_t p = proc_count_;
  route_begin_.assign(p * p, 0);
  route_hops_.assign(p * p, 0);
  route_latency_ms_.assign(p * p, 0.0);
  route_bandwidth_gbps_.assign(p * p, 0.0);
  route_bottleneck_.assign(p * p, kNoLink);

  if (spec_.kind == TopologyKind::Bus) {
    std::vector<LinkId> link_of(p * p, kNoLink);
    for (std::size_t from = 0; from < p; ++from)
      for (std::size_t to = 0; to < p; ++to)
        if (from != to) link_of[from * p + to] = 0;
    link_count_ = p > 1 ? 1 : 0;
    if (link_count_ > 0) link_names_.push_back("bus");
    build_single_hop_routes(link_of);
  } else if (spec_.kind == TopologyKind::Crossbar) {
    std::vector<LinkId> link_of(p * p, kNoLink);
    LinkId next = 0;
    for (std::size_t from = 0; from < p; ++from) {
      for (std::size_t to = 0; to < p; ++to) {
        if (from == to) continue;
        link_of[from * p + to] = next;
        link_names_.push_back("P" + std::to_string(from) + ">P" +
                              std::to_string(to));
        ++next;
      }
    }
    link_count_ = next;
    build_single_hop_routes(link_of);
  } else if (spec_.kind == TopologyKind::Hierarchical) {
    const std::size_t sockets =
        (p + spec_.socket_size - 1) / spec_.socket_size;
    // One link per ordered socket pair, allocated in (from, to) order so
    // link ids are deterministic.
    std::vector<LinkId> socket_link(sockets * sockets, kNoLink);
    LinkId next = 0;
    for (std::size_t sf = 0; sf < sockets; ++sf) {
      for (std::size_t st = 0; st < sockets; ++st) {
        if (sf == st) continue;
        socket_link[sf * sockets + st] = next;
        link_names_.push_back("S" + std::to_string(sf) + ">S" +
                              std::to_string(st));
        ++next;
      }
    }
    std::vector<LinkId> link_of(p * p, kNoLink);
    for (std::size_t from = 0; from < p; ++from) {
      for (std::size_t to = 0; to < p; ++to) {
        if (from == to) continue;
        const std::size_t sf = from / spec_.socket_size;
        const std::size_t st = to / spec_.socket_size;
        if (sf == st) continue;  // same socket: local
        link_of[from * p + to] = socket_link[sf * sockets + st];
      }
    }
    link_count_ = next;
    build_single_hop_routes(link_of);
  } else if (spec_.kind == TopologyKind::Ring) {
    build_ring();
  } else if (spec_.kind == TopologyKind::Mesh) {
    build_mesh();
  } else if (spec_.kind == TopologyKind::FatTree) {
    build_fattree();
  }
  // A "contended" fabric with no links on a multi-processor platform is a
  // silent free-communication machine (every pair local) — certainly not
  // what a user asking for one meant. Single-processor platforms are
  // exempt: they have no pairs to connect under any kind.
  if (contended() && link_count_ == 0 && proc_count_ > 1)
    throw std::invalid_argument(
        "Topology: '" + spec_.label() + "' puts all " + std::to_string(p) +
        " processors in one local group — every transfer would be free; "
        "use 'ideal' or a finer shape");
}

/// Routes of a single-hop kind: each non-local pair traverses exactly its
/// one link.
void Topology::build_single_hop_routes(const std::vector<LinkId>& link_of) {
  std::vector<std::vector<LinkId>> routes(proc_count_ * proc_count_);
  for (std::size_t pair = 0; pair < link_of.size(); ++pair)
    if (link_of[pair] != kNoLink) routes[pair] = {link_of[pair]};
  flatten_routes(std::move(routes));
}

void Topology::build_ring() {
  const std::size_t p = proc_count_;
  const std::size_t n = spec_.ring_size > 0 ? spec_.ring_size : p;
  if (n < p)
    throw std::invalid_argument(
        "Topology: ring size " + std::to_string(n) + " is smaller than the " +
        std::to_string(p) + "-processor platform");
  if (p == 1) return;  // no pairs, no links
  // Clockwise links first (i -> i+1 mod n, ascending i), then the
  // counter-clockwise direction — except n == 2, where both directions
  // collapse onto the same adjacent pair and one directed link each way
  // suffices.
  std::vector<LinkId> cw(n, kNoLink);
  std::vector<LinkId> ccw(n, kNoLink);
  LinkId next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1) % n;
    cw[i] = next++;
    link_names_.push_back("R" + std::to_string(i) + ">R" + std::to_string(j));
  }
  if (n > 2) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i + n - 1) % n;
      ccw[i] = next++;
      link_names_.push_back("R" + std::to_string(i) + ">R" +
                            std::to_string(j));
    }
  } else {
    // Two positions: either direction from i reaches the same neighbour
    // over the same directed link.
    ccw[0] = cw[0];
    ccw[1] = cw[1];
  }
  link_count_ = next;

  // Processor i sits at ring position i; spare positions (p <= pos < n)
  // only relay. Shortest arc wins, ties clockwise.
  std::vector<std::vector<LinkId>> routes(p * p);
  for (std::size_t from = 0; from < p; ++from) {
    for (std::size_t to = 0; to < p; ++to) {
      if (from == to) continue;
      const std::size_t d_cw = (to + n - from) % n;
      const std::size_t d_ccw = n - d_cw;
      std::vector<LinkId>& path = routes[from * p + to];
      std::size_t at = from;
      if (d_cw <= d_ccw) {
        for (std::size_t h = 0; h < d_cw; ++h) {
          path.push_back(cw[at]);
          at = (at + 1) % n;
        }
      } else {
        for (std::size_t h = 0; h < d_ccw; ++h) {
          path.push_back(ccw[at]);
          at = (at + n - 1) % n;
        }
      }
    }
  }
  flatten_routes(std::move(routes));
}

void Topology::build_mesh() {
  const std::size_t p = proc_count_;
  const std::size_t rows = spec_.mesh_rows;
  const std::size_t cols = spec_.mesh_cols;
  if (rows * cols < p)
    throw std::invalid_argument(
        "Topology: mesh " + std::to_string(rows) + "x" + std::to_string(cols) +
        " has fewer cells than the " + std::to_string(p) +
        "-processor platform");
  if (p == 1) return;
  // Directed links between 4-neighbours, allocated row-major per cell
  // (east, west from the east cell, south, north from the south cell are
  // covered by emitting both directions at each boundary).
  const auto cell = [cols](std::size_t r, std::size_t c) {
    return r * cols + c;
  };
  const auto name = [](std::size_t r, std::size_t c) {
    return "M" + std::to_string(r) + "," + std::to_string(c);
  };
  // east[cell] = link to (r, c+1); west/south/north likewise.
  const std::size_t cells = rows * cols;
  std::vector<LinkId> east(cells, kNoLink), west(cells, kNoLink),
      south(cells, kNoLink), north(cells, kNoLink);
  LinkId next = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        east[cell(r, c)] = next++;
        link_names_.push_back(name(r, c) + ">" + name(r, c + 1));
        west[cell(r, c + 1)] = next++;
        link_names_.push_back(name(r, c + 1) + ">" + name(r, c));
      }
      if (r + 1 < rows) {
        south[cell(r, c)] = next++;
        link_names_.push_back(name(r, c) + ">" + name(r + 1, c));
        north[cell(r + 1, c)] = next++;
        link_names_.push_back(name(r + 1, c) + ">" + name(r, c));
      }
    }
  }
  link_count_ = next;

  // Processor i fills cell (i / cols, i % cols); spare cells only relay.
  // Dimension-order (X then Y) routing: walk the row to the target column,
  // then the column to the target row — deterministic and shortest.
  std::vector<std::vector<LinkId>> routes(p * p);
  for (std::size_t from = 0; from < p; ++from) {
    for (std::size_t to = 0; to < p; ++to) {
      if (from == to) continue;
      std::size_t r = from / cols, c = from % cols;
      const std::size_t tr = to / cols, tc = to % cols;
      std::vector<LinkId>& path = routes[from * p + to];
      while (c < tc) path.push_back(east[cell(r, c)]), ++c;
      while (c > tc) path.push_back(west[cell(r, c)]), --c;
      while (r < tr) path.push_back(south[cell(r, c)]), ++r;
      while (r > tr) path.push_back(north[cell(r, c)]), --r;
    }
  }
  flatten_routes(std::move(routes));
}

void Topology::build_fattree() {
  const std::size_t p = proc_count_;
  const std::size_t k = spec_.fattree_arity;
  if (p == 1) return;
  // Levels of the tree, leaves (== processors) at level 0; consecutive
  // groups of k nodes share a parent until one root remains. Each tree
  // edge contributes an up link (child -> parent) and a down link, both
  // allocated in level order then child order — deterministic ids.
  struct TreeNode {
    std::size_t parent = 0;
    LinkId up = kNoLink;    ///< this -> parent
    LinkId down = kNoLink;  ///< parent -> this
  };
  std::vector<std::vector<TreeNode>> levels;
  levels.emplace_back(p);
  LinkId next = 0;
  const auto node_name = [](std::size_t level, std::size_t idx) {
    return level == 0 ? "P" + std::to_string(idx)
                      : "S" + std::to_string(level) + "_" + std::to_string(idx);
  };
  while (levels.back().size() > 1) {
    const std::size_t level = levels.size() - 1;
    std::vector<TreeNode>& children = levels.back();
    const std::size_t parents = (children.size() + k - 1) / k;
    for (std::size_t i = 0; i < children.size(); ++i) {
      children[i].parent = i / k;
      children[i].up = next++;
      link_names_.push_back(node_name(level, i) + ">" +
                            node_name(level + 1, i / k));
      children[i].down = next++;
      link_names_.push_back(node_name(level + 1, i / k) + ">" +
                            node_name(level, i));
    }
    levels.emplace_back(parents);
  }
  link_count_ = next;

  // Route: climb from the source leaf and the destination leaf level by
  // level until the chains meet (lowest common ancestor), emitting the
  // source's up links forward and the destination's down links in reverse.
  std::vector<std::vector<LinkId>> routes(p * p);
  for (std::size_t from = 0; from < p; ++from) {
    for (std::size_t to = 0; to < p; ++to) {
      if (from == to) continue;
      std::vector<LinkId>& path = routes[from * p + to];
      std::vector<LinkId> down_part;
      std::size_t a = from, b = to, level = 0;
      while (a != b) {
        path.push_back(levels[level][a].up);
        down_part.push_back(levels[level][b].down);
        a = levels[level][a].parent;
        b = levels[level][b].parent;
        ++level;
      }
      path.insert(path.end(), down_part.rbegin(), down_part.rend());
    }
  }
  flatten_routes(std::move(routes));
}

/// Also fills the per-pair head latency (summed per hop in route order)
/// and bottleneck tables from the per-link values.
void Topology::flatten_routes(std::vector<std::vector<LinkId>> routes) {
  std::size_t total = 0;
  for (const auto& r : routes) total += r.size();
  route_data_.reserve(total);
  for (std::size_t pair = 0; pair < routes.size(); ++pair) {
    const std::vector<LinkId>& r = routes[pair];
    route_begin_[pair] = static_cast<std::uint32_t>(route_data_.size());
    route_hops_[pair] = static_cast<std::uint32_t>(r.size());
    diameter_hops_ = std::max<std::size_t>(diameter_hops_, r.size());
    route_data_.insert(route_data_.end(), r.begin(), r.end());
    if (r.empty()) continue;
    TimeMs latency = 0.0;
    LinkId bottleneck = r[0];
    for (const LinkId l : r) {
      latency += latency_ms(l);
      if (bandwidth_gbps(l) < bandwidth_gbps(bottleneck)) bottleneck = l;
    }
    route_latency_ms_[pair] = latency;
    route_bandwidth_gbps_[pair] = bandwidth_gbps(bottleneck);
    route_bottleneck_[pair] = bottleneck;
  }
}

std::size_t Topology::pair_index(ProcId from, ProcId to) const {
  if (from >= proc_count_ || to >= proc_count_)
    throw std::out_of_range("Topology: processor id out of range");
  return static_cast<std::size_t>(from) * proc_count_ + to;
}

Topology::Route Topology::route(ProcId from, ProcId to) const {
  const std::size_t pair = pair_index(from, to);
  return Route{route_data_.data() + route_begin_[pair], route_hops_[pair]};
}

LinkId Topology::link(ProcId from, ProcId to) const {
  const Route r = route(from, to);
  if (r.empty()) return kNoLink;
  if (r.hops > 1)
    throw std::logic_error(
        "Topology::link: the " + std::to_string(r.hops) +
        "-hop route needs route() — link() serves single-hop kinds only");
  return r[0];
}

double Topology::bandwidth_gbps(LinkId link) const {
  if (link >= link_count_)
    throw std::out_of_range("Topology: link id out of range");
  return bandwidth_gbps_;
}

TimeMs Topology::latency_ms(LinkId link) const {
  if (link >= link_count_)
    throw std::out_of_range("Topology: link id out of range");
  return spec_.latency_ms;
}

std::string Topology::link_name(LinkId link) const {
  if (link >= link_count_)
    throw std::out_of_range("Topology: link id out of range");
  return link_names_[link];
}

TimeMs Topology::route_latency_ms(ProcId from, ProcId to) const {
  return route_latency_ms_[pair_index(from, to)];
}

double Topology::route_bandwidth_gbps(ProcId from, ProcId to) const {
  return route_bandwidth_gbps_[pair_index(from, to)];
}

LinkId Topology::bottleneck_link(ProcId from, ProcId to) const {
  return route_bottleneck_[pair_index(from, to)];
}

}  // namespace apt::net
