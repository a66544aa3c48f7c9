// Seeded service-time noise: stochastic perturbation of the cost model's
// execution times.
//
// Everything the simulator costs is deterministic given the LUT — no
// stragglers, no heavy tails, none of what production schedulers actually
// fight. NoiseSpec adds a multiplicative noise layer on *realized*
// execution times: the duration a kernel actually runs is
//
//   exec_ms = nominal_exec_ms × noise_multiplier(spec, instance, node, rep)
//
// where the multiplier combines a mean-preserving lognormal factor
// (exp(sigma·z − sigma²/2), so E[factor] = 1 and expected throughput is
// unchanged) with a Bernoulli heavy-tail event (probability
// heavy_tail_prob, factor heavy_tail_multiplier — the "one request in
// fifty takes 20× longer" regime tail-tolerant schedulers are built for).
//
// Scheduler-visible estimates (SchedulerContext::exec_time_ms and friends)
// keep returning the NOMINAL times: policies plan against the cost model
// exactly as before, and only the simulated outcome deviates — which is
// precisely the straggler problem. The realized multiplier is recorded in
// ScheduledKernel::noise_mult so validators can audit
// exec_ms == nominal × noise_mult without re-deriving the draw.
//
// Determinism: the multiplier is a pure function of
// (spec.seed, instance, node, replica) via nested util::stream_seed
// substreams — independent of scheduling order, event interleaving, and
// worker count. The same seed therefore produces identical draws in
// sim::Engine (instance 0) and stream::StreamEngine (instance = the app's
// arrival index), and batch sweeps stay bit-identical for any --jobs.
// With the spec disabled (all defaults) no RNG is touched and every
// multiplier is exactly 1.0, reproducing noise-free timelines bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>

namespace apt::sim {

struct NoiseSpec {
  /// Lognormal scale: realized = nominal × exp(sigma·z − sigma²/2),
  /// z ~ N(0,1). 0 disables the lognormal factor.
  double sigma = 0.0;

  /// Probability a kernel execution is a heavy-tail event (straggler).
  double heavy_tail_prob = 0.0;

  /// Multiplier applied on a heavy-tail event (>= 1).
  double heavy_tail_multiplier = 20.0;

  /// Base seed of the per-kernel noise substreams.
  std::uint64_t seed = 0;

  /// True when any perturbation is configured; false reproduces the
  /// noise-free timelines bit-for-bit (no RNG is consulted).
  bool enabled() const noexcept {
    return sigma > 0.0 ||
           (heavy_tail_prob > 0.0 && heavy_tail_multiplier != 1.0);
  }

  /// Throws std::invalid_argument on a negative or non-finite sigma, a
  /// probability outside [0,1] (NaN included), or a multiplier that is
  /// < 1 or non-finite.
  void validate() const;
};

/// Straggler hedging: when a running kernel's elapsed time exceeds a
/// rolling-quantile threshold of what its nominal cost predicted, launch a
/// duplicate ("replica") of it on an idle processor and let the two race.
/// First completion wins; the loser is cancelled at that instant and its
/// processor freed. This is the classic tail-tolerance tradeoff — spend
/// (bounded) duplicate work to cut p99 latency under heavy-tailed service
/// times.
///
/// The threshold for a kernel with nominal duration `nom` on its primary
/// processor is
///
///   hedge_after = nom × max(1, Q_quantile(inflation window)) × factor
///
/// where the inflation window is a util::RollingQuantile over the
/// realized/nominal ratios of recently completed kernels (bounded memory;
/// no full-sample retention). Until `min_samples` completions have been
/// observed the quantile is untrusted and `hedge_after = nom × factor`.
/// Each kernel is hedged at most once, and only when an idle processor
/// exists at the moment the threshold trips.
struct HedgeSpec {
  bool enabled = false;

  /// Quantile of the rolling inflation-ratio window that anchors the
  /// threshold (in [0,1]).
  double quantile = 0.95;

  /// Safety factor on top of the quantile — hedge only when the kernel has
  /// run `factor` times longer than the tail-adjusted expectation.
  double threshold_factor = 1.5;

  /// Completions observed before the rolling quantile is trusted.
  std::size_t min_samples = 16;

  /// RollingQuantile window capacity (bounds hedging memory).
  std::size_t window = 256;

  /// Throws std::invalid_argument on quantile outside [0,1] (NaN
  /// included), threshold_factor < 1 or non-finite, or a zero window.
  void validate() const;
};

/// The realized-over-nominal execution-time multiplier of one kernel run:
/// `instance` identifies the application (0 in the closed-system engine,
/// the arrival index in the stream engine), `node` the kernel within it,
/// and `replica` the attempt (0 = primary, 1 = hedged replica). Pure and
/// deterministic in its arguments; returns exactly 1.0 when the spec is
/// disabled. Always > 0.
double noise_multiplier(const NoiseSpec& spec, std::uint64_t instance,
                        std::uint64_t node, std::uint64_t replica = 0);

/// The q-quantile of the noise-multiplier distribution itself (the mixture
/// a single noise_multiplier draw follows): lognormal(−sigma²/2, sigma)
/// times an independent {1, heavy_tail_multiplier} Bernoulli factor. This
/// is the planning-side dual of noise_multiplier — quantile-ranking
/// policies (APT-Q) scale nominal estimates by it to price tail risk
/// without peeking at any realized draw. Deterministic and
/// seed-independent; returns exactly 1.0 when the spec is disabled, so
/// quantile-planning policies degenerate to their mean counterparts
/// bit-for-bit on noise-off runs. Closed form when sigma == 0 (a two-point
/// distribution); otherwise the mixture CDF is inverted by bisection to
/// ~1e-12 relative precision. Throws std::invalid_argument when q is
/// outside (0, 1).
double noise_quantile_multiplier(const NoiseSpec& spec, double q);

}  // namespace apt::sim
