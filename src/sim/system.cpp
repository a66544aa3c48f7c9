#include "sim/system.hpp"

#include <cmath>
#include <stdexcept>

namespace apt::sim {

Interconnect::Interconnect(std::size_t proc_count, double uniform_gbps)
    : proc_count_(proc_count) {
  if (proc_count_ == 0)
    throw std::invalid_argument("Interconnect: need at least one processor");
  if (!(uniform_gbps > 0.0))
    throw std::invalid_argument("Interconnect: rate must be positive");
  rate_.assign(proc_count_ * proc_count_, uniform_gbps);
}

std::size_t Interconnect::index(ProcId from, ProcId to) const {
  if (from >= proc_count_ || to >= proc_count_)
    throw std::out_of_range("Interconnect: processor id out of range");
  return static_cast<std::size_t>(from) * proc_count_ + to;
}

void Interconnect::set_rate_gbps(ProcId from, ProcId to, double gbps) {
  if (!(gbps > 0.0))
    throw std::invalid_argument("Interconnect: rate must be positive");
  rate_[index(from, to)] = gbps;
}

double Interconnect::rate_gbps(ProcId from, ProcId to) const {
  return rate_[index(from, to)];
}

TimeMs Interconnect::transfer_time_ms(double bytes, ProcId from,
                                      ProcId to) const {
  if (bytes < 0.0)
    throw std::invalid_argument("Interconnect: negative byte count");
  if (from == to) {
    index(from, to);  // still validate ids
    return 0.0;
  }
  // GB/s == bytes/ns; ms = bytes / (rate_GBps * 1e6).
  return bytes / (rate_gbps(from, to) * 1e6);
}

SystemConfig SystemConfig::paper_default(double rate_gbps) {
  SystemConfig cfg;
  cfg.processors = {lut::ProcType::CPU, lut::ProcType::GPU, lut::ProcType::FPGA};
  cfg.link_rate_gbps = rate_gbps;
  return cfg;
}

System::System(SystemConfig config)
    : config_(std::move(config)),
      interconnect_(config_.processors.empty() ? 1 : config_.processors.size(),
                    config_.link_rate_gbps),
      topology_(config_.topology,
                config_.processors.empty() ? 1 : config_.processors.size(),
                config_.link_rate_gbps) {
  if (config_.processors.empty())
    throw std::invalid_argument("System: need at least one processor");
  if (!(config_.bytes_per_element > 0.0) ||
      std::isinf(config_.bytes_per_element))
    throw std::invalid_argument(
        "System: bytes_per_element must be finite and positive");
  if (config_.decision_overhead_ms < 0.0 || config_.dispatch_overhead_ms < 0.0)
    throw std::invalid_argument("System: overheads must be non-negative");
  for (std::size_t i = 0; i < lut::kNumProcTypes; ++i) {
    if (config_.active_power_w[i] < 0.0 || config_.idle_power_w[i] < 0.0)
      throw std::invalid_argument("System: powers must be non-negative");
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
