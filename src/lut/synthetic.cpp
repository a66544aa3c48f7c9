#include "lut/synthetic.hpp"

#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace apt::lut {

namespace {

/// Throws unless `value` is finite and `in_range`; `rule` names the knob.
void check_knob(double value, bool in_range, const char* rule) {
  if (!in_range || !std::isfinite(value))
    throw std::invalid_argument(std::string("synthetic_lookup_table: ") + rule);
}

void check_spec(const SyntheticLutSpec& spec) {
  if (spec.kernel_count == 0)
    throw std::invalid_argument("synthetic_lookup_table: kernel_count >= 1");
  if (spec.sizes_per_kernel == 0)
    throw std::invalid_argument(
        "synthetic_lookup_table: sizes_per_kernel >= 1");
  check_knob(spec.heterogeneity, spec.heterogeneity >= 1.0,
             "heterogeneity must be finite and >= 1");
  check_knob(spec.ccr, spec.ccr >= 0.0, "ccr must be finite and >= 0");
  check_knob(spec.mean_exec_ms, spec.mean_exec_ms > 0.0,
             "mean_exec_ms must be finite and > 0");
  check_knob(spec.spread, spec.spread >= 1.0, "spread must be finite and >= 1");
  check_knob(spec.link_rate_gbps, spec.link_rate_gbps > 0.0,
             "link_rate_gbps must be finite and > 0");
  check_knob(spec.bytes_per_element, spec.bytes_per_element > 0.0,
             "bytes_per_element must be finite and > 0");
}

/// Rows below this many elements (2^53) keep an exact integer size in the
/// double that every transfer price divides by the link rate.
constexpr double kMaxRowElements = 0x1p53;

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
      const double bytes = spec.ccr * mean_time * spec.link_rate_gbps * 1e6;
      const double elements = bytes / spec.bytes_per_element;
      if (!(elements < kMaxRowElements))
        throw std::invalid_argument(
            "synthetic_lookup_table: ccr x mean_exec_ms x link_rate_gbps x "
            "1e6 / bytes_per_element calibrates a row of 2^53 elements or "
            "more; lower ccr or link_rate_gbps");
      std::uint64_t size = static_cast<std::uint64_t>(std::llround(elements));
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
