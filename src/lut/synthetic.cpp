#include "lut/synthetic.hpp"

#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace apt::lut {

namespace {

void check_spec(const SyntheticLutSpec& spec) {
  if (spec.kernel_count == 0)
    throw std::invalid_argument("synthetic_lookup_table: kernel_count >= 1");
  if (spec.sizes_per_kernel == 0)
    throw std::invalid_argument(
        "synthetic_lookup_table: sizes_per_kernel >= 1");
  if (!(spec.heterogeneity >= 1.0))
    throw std::invalid_argument(
        "synthetic_lookup_table: heterogeneity must be >= 1");
  if (!(spec.ccr >= 0.0))
    throw std::invalid_argument("synthetic_lookup_table: ccr must be >= 0");
  if (!(spec.mean_exec_ms > 0.0))
    throw std::invalid_argument(
        "synthetic_lookup_table: mean_exec_ms must be > 0");
  if (!(spec.spread >= 1.0))
    throw std::invalid_argument("synthetic_lookup_table: spread must be >= 1");
  if (!(spec.link_rate_gbps > 0.0))
    throw std::invalid_argument(
        "synthetic_lookup_table: link_rate_gbps must be > 0");
  if (!(spec.bytes_per_element > 0.0))
    throw std::invalid_argument(
        "synthetic_lookup_table: bytes_per_element must be > 0");
}

// The fastest/middle/slowest row construction below assumes the three
// processor categories of the thesis.
static_assert(kNumProcTypes == 3);

}  // namespace

LookupTable synthetic_lookup_table(const SyntheticLutSpec& spec) {
  check_spec(spec);
  util::Rng rng(spec.seed ^ 0x5E1FC7AB91E50D37ULL);
  LookupTable table;
  const double half_log_spread = 0.5 * std::log(spec.spread);
  for (std::size_t k = 0; k < spec.kernel_count; ++k) {
    const std::string kernel = "syn" + std::to_string(k);
    std::set<std::uint64_t> used_sizes;
    for (std::size_t s = 0; s < spec.sizes_per_kernel; ++s) {
      const double base =
          spec.spread > 1.0
              ? spec.mean_exec_ms *
                    std::exp(rng.uniform_real(-half_log_spread,
                                              half_log_spread))
              : spec.mean_exec_ms;
      // Fastest category runs at `base`, slowest at base*heterogeneity, the
      // middle one log-uniform in between; which category is which is a
      // fresh shuffle per row.
      std::vector<std::size_t> order = {0, 1, 2};
      rng.shuffle(order);
      Entry entry;
      entry.kernel = kernel;
      entry.time_ms[order[0]] = base;
      entry.time_ms[order[1]] =
          spec.heterogeneity > 1.0
              ? base * std::exp(std::log(spec.heterogeneity) * rng.uniform01())
              : base;
      entry.time_ms[order[2]] = base * spec.heterogeneity;
      // Calibrate the row's output size so that moving it over the link
      // costs ccr × the row's mean execution time (transfer_ms =
      // bytes / (rate_GBps * 1e6), LutCostModel's price between two
      // processors).
      const double mean_time =
          (entry.time_ms[0] + entry.time_ms[1] + entry.time_ms[2]) / 3.0;
      std::uint64_t size = static_cast<std::uint64_t>(std::llround(
          spec.ccr * mean_time * spec.link_rate_gbps * 1e6 /
          spec.bytes_per_element));
      while (used_sizes.count(size) != 0) ++size;  // keys must be unique
      used_sizes.insert(size);
      entry.data_size = size;
      table.add(std::move(entry));
    }
  }
  return table;
}

double mean_ccr(const LookupTable& table, double link_rate_gbps,
                double bytes_per_element) {
  if (!(link_rate_gbps > 0.0) || !(bytes_per_element > 0.0))
    throw std::invalid_argument("mean_ccr: rate and element size must be > 0");
  if (table.empty()) return 0.0;
  double sum = 0.0;
  for (const Entry& e : table.entries()) {
    const double transfer_ms = static_cast<double>(e.data_size) *
                               bytes_per_element / (link_rate_gbps * 1e6);
    const double mean_time =
        (e.time_ms[0] + e.time_ms[1] + e.time_ms[2]) / 3.0;
    sum += transfer_ms / mean_time;
  }
  return sum / static_cast<double>(table.size());
}

}  // namespace apt::lut
