#include "stream/arrival.hpp"

#include <cmath>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace apt::stream {

const char* to_string(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::Poisson:
      return "poisson";
    case ArrivalKind::Deterministic:
      return "deterministic";
    case ArrivalKind::Trace:
      return "trace";
  }
  return "?";
}

ArrivalKind parse_arrival_kind(const std::string& name) {
  const std::string s = util::to_lower(util::trim(name));
  if (s == "poisson") return ArrivalKind::Poisson;
  if (s == "deterministic" || s == "uniform")
    return ArrivalKind::Deterministic;
  if (s == "trace") return ArrivalKind::Trace;
  throw std::invalid_argument("unknown arrival process '" + name +
                              "' (known: poisson, deterministic, trace)");
}

ArrivalSpec ArrivalSpec::poisson(double rate_per_ms, std::uint64_t seed) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Poisson;
  spec.rate_per_ms = rate_per_ms;
  spec.seed = seed;
  spec.validate();
  return spec;
}

ArrivalSpec ArrivalSpec::deterministic(double rate_per_ms) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Deterministic;
  spec.rate_per_ms = rate_per_ms;
  spec.validate();
  return spec;
}

ArrivalSpec ArrivalSpec::trace(std::vector<sim::TimeMs> arrival_times_ms) {
  ArrivalSpec spec;
  spec.kind = ArrivalKind::Trace;
  spec.arrival_times_ms = std::move(arrival_times_ms);
  spec.validate();
  return spec;
}

void ArrivalSpec::validate() const {
  if (kind == ArrivalKind::Trace) {
    sim::TimeMs prev = 0.0;
    for (const sim::TimeMs t : arrival_times_ms) {
      // A NaN instant passes `t < prev` and would stall the clock; an
      // infinite one never arrives.
      if (!std::isfinite(t) || t < prev)
        throw std::invalid_argument(
            "ArrivalSpec: trace times must be finite, sorted and >= 0");
      prev = t;
    }
    return;
  }
  if (!std::isfinite(rate_per_ms) || !(rate_per_ms > 0.0))
    throw std::invalid_argument(
        "ArrivalSpec: arrival rate must be finite and > 0 applications/ms");
}

ArrivalProcess::ArrivalProcess(ArrivalSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed) {
  spec_.validate();
}

std::optional<sim::TimeMs> ArrivalProcess::next() {
  switch (spec_.kind) {
    case ArrivalKind::Poisson:
      // The shared seed contract: gap k is draw k of Rng(seed) through
      // exponential_interval_ms — see dag::apply_poisson_arrivals.
      clock_ += util::exponential_interval_ms(rng_, 1.0 / spec_.rate_per_ms);
      return clock_;
    case ArrivalKind::Deterministic:
      // Derived from the arrival counter, not accumulated: k/rate is exact
      // for every k, whereas += 1/rate compounds rounding error over long
      // horizons.
      ++count_;
      return static_cast<double>(count_) / spec_.rate_per_ms;
    case ArrivalKind::Trace:
      if (trace_pos_ >= spec_.arrival_times_ms.size()) return std::nullopt;
      return spec_.arrival_times_ms[trace_pos_++];
  }
  return std::nullopt;
}

}  // namespace apt::stream
