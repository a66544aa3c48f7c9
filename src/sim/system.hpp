// The simulated heterogeneous hardware platform (thesis Figure 1 / §3.2):
// a set of processor instances (any mix of CPU / GPU / FPGA categories)
// joined by PCIe-like point-to-point links with configurable throughput.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lut/proc_type.hpp"
#include "net/topology.hpp"

namespace apt::sim {

/// Simulation time in milliseconds (the unit of the lookup table).
using TimeMs = double;

/// Dense processor-instance index within a System.
using ProcId = std::uint32_t;
inline constexpr ProcId kInvalidProc = static_cast<ProcId>(-1);

/// One processor instance.
struct Processor {
  ProcId id;
  lut::ProcType type;
  std::string name;  ///< e.g. "CPU0", "GPU0", "FPGA1"
};

/// Everything needed to instantiate a System.
struct SystemConfig {
  std::vector<lut::ProcType> processors;  ///< one entry per instance
  double link_rate_gbps = 4.0;            ///< uniform PCIe rate (x8 default)
  double bytes_per_element = 4.0;         ///< LUT data sizes are elements

  /// λ-model overheads (thesis §2.5.1). Both default to zero so that the
  /// worked example of Figure 5 reproduces exactly.
  TimeMs decision_overhead_ms = 0.0;  ///< scheduler think-time per assignment
  TimeMs dispatch_overhead_ms = 0.0;  ///< scheduler→processor hand-off

  /// Power model per processor *category* (watts), used for the energy
  /// metrics the thesis's motivation appeals to ("high performance and
  /// power efficiency"). Defaults are typical board powers of the thesis's
  /// platforms (i7-2600 class CPU, Tesla K20 class GPU, Virtex-7 class
  /// FPGA): active while computing, idle otherwise (transfers counted at
  /// idle power — DMA engines, not the compute fabric, move the data).
  std::array<double, lut::kNumProcTypes> active_power_w = {95.0, 225.0, 25.0};
  std::array<double, lut::kNumProcTypes> idle_power_w = {15.0, 25.0, 2.0};

  /// Interconnect topology (src/net). The default (ideal) keeps the
  /// pre-net behaviour bit for bit: transfers cost what the cost model
  /// says and never contend. Any other kind switches the engines to the
  /// contention-aware comm phase over the topology's shared links. A spec
  /// bandwidth of 0 tracks `link_rate_gbps`, so sweeping the rate axis
  /// sweeps the fabric too.
  net::TopologySpec topology;

  /// The paper's platform: one CPU + one GPU + one FPGA at `rate_gbps`.
  static SystemConfig paper_default(double rate_gbps = 4.0);
};

/// An immutable processor-set + interconnect.
class System {
 public:
  /// Throws std::invalid_argument on an empty processor list, a link rate
  /// or bytes_per_element that is not finite and > 0, negative overheads
  /// or powers, or a topology the processor count cannot instantiate.
  explicit System(SystemConfig config);

  const SystemConfig& config() const noexcept { return config_; }
  const std::vector<Processor>& processors() const noexcept { return procs_; }
  std::size_t proc_count() const noexcept { return procs_.size(); }
  const Processor& processor(ProcId id) const { return procs_.at(id); }

  /// The instantiated interconnect topology (config().topology resolved
  /// for this processor count and link rate).
  const net::Topology& topology() const noexcept { return topology_; }

  /// Number of instances of a category.
  std::size_t count_of(lut::ProcType type) const noexcept;

  /// Instance ids of a category, ascending.
  std::vector<ProcId> instances_of(lut::ProcType type) const;

 private:
  SystemConfig config_;
  std::vector<Processor> procs_;
  net::Topology topology_;
};

}  // namespace apt::sim
