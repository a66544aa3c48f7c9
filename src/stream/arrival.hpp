// Application-arrival processes for the open-system stream engine.
//
// A closed-system experiment (sim::Engine) submits one DAG at time zero; an
// open system receives an unbounded stream of applications. ArrivalSpec
// names the three processes the streaming literature distinguishes:
//
//   Poisson        exponentially distributed inter-arrival gaps — the
//                  memoryless M/·/· arrival model. Seed contract shared
//                  with dag::apply_poisson_arrivals: the k-th gap is the
//                  k-th util::exponential_interval_ms draw of
//                  util::Rng(seed), so one seed names one arrival sequence
//                  across the whole project.
//   Deterministic  a fixed gap of 1/rate — the D/·/· model, useful for
//                  isolating queueing noise from arrival noise.
//   Trace          replay of explicit arrival instants (e.g. recorded from
//                  a production system).
//
// ArrivalProcess iterates a spec into absolute arrival times, strictly
// increasing for the synthetic kinds and non-decreasing for traces.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/system.hpp"
#include "util/rng.hpp"

namespace apt::stream {

enum class ArrivalKind { Poisson, Deterministic, Trace };

const char* to_string(ArrivalKind kind) noexcept;

/// Parses "poisson" / "deterministic" / "trace" (case-insensitive,
/// trimmed); throws std::invalid_argument otherwise. Total round trip with
/// to_string: parse_arrival_kind(to_string(k)) == k for every kind. A
/// parsed Trace kind still needs its instants supplied (e.g. the stream
/// CLI's --trace-file) before the spec validates.
ArrivalKind parse_arrival_kind(const std::string& name);

/// Declarative description of one arrival process.
struct ArrivalSpec {
  ArrivalKind kind = ArrivalKind::Poisson;

  /// Mean arrival intensity λ in applications per millisecond (mean gap =
  /// 1/λ). Ignored by traces.
  double rate_per_ms = 0.01;

  /// Poisson only; deterministic and trace processes draw nothing.
  std::uint64_t seed = 1;

  /// Trace only: absolute arrival instants, non-decreasing, >= 0.
  std::vector<sim::TimeMs> arrival_times_ms;

  static ArrivalSpec poisson(double rate_per_ms, std::uint64_t seed);
  static ArrivalSpec deterministic(double rate_per_ms);
  static ArrivalSpec trace(std::vector<sim::TimeMs> arrival_times_ms);

  /// Throws std::invalid_argument on a rate that is not finite and
  /// positive, or a trace instant that is not finite, negative, or out of
  /// order.
  void validate() const;
};

/// Iterates an ArrivalSpec into absolute arrival times. The first arrival
/// of the synthetic kinds already lies one gap after time zero (matching
/// dag::apply_poisson_arrivals, whose first entry release is the first
/// sampled gap, not zero).
class ArrivalProcess {
 public:
  explicit ArrivalProcess(ArrivalSpec spec);

  /// The next arrival instant; std::nullopt once a trace is exhausted
  /// (synthetic processes never end — the engine's admission horizon or
  /// application cap bounds them).
  std::optional<sim::TimeMs> next();

 private:
  ArrivalSpec spec_;
  util::Rng rng_;
  sim::TimeMs clock_ = 0.0;  ///< Poisson: running sum of random gaps
  /// Deterministic arrivals completed so far. Arrival k is computed as
  /// k/rate rather than by accumulating += 1/rate, whose rounding error
  /// compounds over long horizons (arrival 10⁶ drifted ~1e-8 ms and, worse,
  /// drifted DIFFERENTLY than a re-derived clock — breaking long-horizon
  /// bit-identity between runs that replay different prefixes).
  std::uint64_t count_ = 0;
  std::size_t trace_pos_ = 0;
};

}  // namespace apt::stream
