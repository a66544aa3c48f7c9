#include "sim/system.hpp"

#include <cmath>
#include <stdexcept>

namespace apt::sim {

namespace {

/// `config`'s link rate, checked before the topology takes it as its default
/// bandwidth. Every LUT transfer divides its payload by it, so an infinite
/// rate would make transfers free and a NaN one would price them NaN.
double checked_link_rate(const SystemConfig& config) {
  if (!(config.link_rate_gbps > 0.0) || std::isinf(config.link_rate_gbps))
    throw std::invalid_argument(
        "System: link_rate_gbps must be finite and positive");
  return config.link_rate_gbps;
}

}  // namespace

SystemConfig SystemConfig::paper_default(double rate_gbps) {
  SystemConfig cfg;
  cfg.processors = {lut::ProcType::CPU, lut::ProcType::GPU, lut::ProcType::FPGA};
  cfg.link_rate_gbps = rate_gbps;
  return cfg;
}

System::System(SystemConfig config)
    : config_(std::move(config)),
      topology_(config_.topology,
                config_.processors.empty() ? 1 : config_.processors.size(),
                checked_link_rate(config_)) {
  if (config_.processors.empty())
    throw std::invalid_argument("System: need at least one processor");
  if (!(config_.bytes_per_element > 0.0) ||
      std::isinf(config_.bytes_per_element))
    throw std::invalid_argument(
        "System: bytes_per_element must be finite and positive");
  // A NaN overhead would hang the engines and an infinite one schedule
  // kernels at +inf; a non-finite power would make the energy non-finite.
  const auto finite_non_negative = [](double x) {
    return x >= 0.0 && std::isfinite(x);
  };
  if (!finite_non_negative(config_.decision_overhead_ms) ||
      !finite_non_negative(config_.dispatch_overhead_ms))
    throw std::invalid_argument(
        "System: overheads must be finite and non-negative");
  for (std::size_t i = 0; i < lut::kNumProcTypes; ++i) {
    if (!finite_non_negative(config_.active_power_w[i]) ||
        !finite_non_negative(config_.idle_power_w[i]))
      throw std::invalid_argument(
          "System: powers must be finite and non-negative");
  }
  std::array<int, lut::kNumProcTypes> type_counter{};
  procs_.reserve(config_.processors.size());
  for (std::size_t i = 0; i < config_.processors.size(); ++i) {
    const lut::ProcType type = config_.processors[i];
    const int nth = type_counter[lut::index_of(type)]++;
    procs_.push_back(Processor{static_cast<ProcId>(i), type,
                               std::string(lut::to_string(type)) +
                                   std::to_string(nth)});
  }
}

std::size_t System::count_of(lut::ProcType type) const noexcept {
  std::size_t n = 0;
  for (const Processor& p : procs_) {
    if (p.type == type) ++n;
  }
  return n;
}

std::vector<ProcId> System::instances_of(lut::ProcType type) const {
  std::vector<ProcId> out;
  for (const Processor& p : procs_) {
    if (p.type == type) out.push_back(p.id);
  }
  return out;
}

}  // namespace apt::sim
