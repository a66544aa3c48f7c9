#include "sim/noise.hpp"

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace apt::sim {

namespace {

/// Salt decorrelating the noise seed family from every other stream_seed
/// family derived from the same base seed (arrivals, instances, policies).
constexpr std::uint64_t kNoiseSeedSalt = 0x5707CA571CA11D1EULL;

}  // namespace

// Every check is written so that NaN fails it.
void NoiseSpec::validate() const {
  if (!std::isfinite(sigma) || sigma < 0.0)
    throw std::invalid_argument("NoiseSpec: sigma must be finite and >= 0");
  if (!(heavy_tail_prob >= 0.0 && heavy_tail_prob <= 1.0))
    throw std::invalid_argument(
        "NoiseSpec: heavy_tail_prob must be in [0,1]");
  if (!std::isfinite(heavy_tail_multiplier) || heavy_tail_multiplier < 1.0)
    throw std::invalid_argument(
        "NoiseSpec: heavy_tail_multiplier must be finite and >= 1");
}

void HedgeSpec::validate() const {
  if (!(quantile >= 0.0 && quantile <= 1.0))
    throw std::invalid_argument("HedgeSpec: quantile must be in [0,1]");
  if (!std::isfinite(threshold_factor) || threshold_factor < 1.0)
    throw std::invalid_argument(
        "HedgeSpec: threshold_factor must be finite and >= 1");
  if (window == 0)
    throw std::invalid_argument("HedgeSpec: window must be >= 1");
}

double noise_multiplier(const NoiseSpec& spec, std::uint64_t instance,
                        std::uint64_t node, std::uint64_t replica) {
  if (!spec.enabled()) return 1.0;
  // One substream per (instance, node, replica): nested stream_seed hops
  // are each O(1), and the resulting draw is independent of the order in
  // which the engine happens to start kernels.
  util::Rng rng(util::stream_seed(
      util::stream_seed(util::stream_seed(spec.seed ^ kNoiseSeedSalt,
                                          instance),
                        node),
      replica));
  double mult = 1.0;
  if (spec.sigma > 0.0) {
    // Box–Muller from two pinned uniform01 draws; the 1-u guards keep the
    // log argument in (0,1]. Mean-preserving: E[exp(sigma z - sigma²/2)]=1.
    const double u1 = 1.0 - rng.uniform01();
    const double u2 = rng.uniform01();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    mult = std::exp(spec.sigma * z - 0.5 * spec.sigma * spec.sigma);
  }
  if (spec.heavy_tail_prob > 0.0 && rng.bernoulli(spec.heavy_tail_prob))
    mult *= spec.heavy_tail_multiplier;
  return mult;
}

namespace {

/// Standard normal CDF via erfc (numerically stable in both tails).
double normal_cdf(double z) {
  return 0.5 * std::erfc(-z / 1.4142135623730951);
}

/// CDF of the multiplier mixture: with probability 1−p a mean-preserving
/// lognormal L = exp(sigma·z − sigma²/2); with probability p the same L
/// times the heavy-tail factor M.
double mixture_cdf(const NoiseSpec& spec, double x) {
  if (!(x > 0.0)) return 0.0;
  const double s = spec.sigma;
  const double p =
      spec.heavy_tail_multiplier != 1.0 ? spec.heavy_tail_prob : 0.0;
  const double mu = -0.5 * s * s;
  const double base = normal_cdf((std::log(x) - mu) / s);
  if (p <= 0.0) return base;
  const double tail =
      normal_cdf((std::log(x / spec.heavy_tail_multiplier) - mu) / s);
  return (1.0 - p) * base + p * tail;
}

}  // namespace

double noise_quantile_multiplier(const NoiseSpec& spec, double q) {
  if (!(q > 0.0) || !(q < 1.0))
    throw std::invalid_argument(
        "noise_quantile_multiplier: q must be in (0, 1)");
  if (!spec.enabled()) return 1.0;
  const double p =
      spec.heavy_tail_multiplier != 1.0 ? spec.heavy_tail_prob : 0.0;
  if (spec.sigma == 0.0) {
    // Two-point distribution {1 w.p. 1−p, M w.p. p}: the quantile steps at
    // 1−p. P(X <= 1) = 1−p, so q <= 1−p maps to the unit mass.
    return q <= 1.0 - p ? 1.0 : spec.heavy_tail_multiplier;
  }
  // Bisection on ln x. The mixture CDF is strictly increasing for
  // sigma > 0, so the bracket below (10 sigma beyond each component's
  // median, on both sides) always contains the root.
  const double s = spec.sigma;
  double lo = -0.5 * s * s - 10.0 * s;
  double hi = -0.5 * s * s + 10.0 * s +
              (p > 0.0 ? std::log(spec.heavy_tail_multiplier) : 0.0);
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mixture_cdf(spec, std::exp(mid)) < q) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::exp(0.5 * (lo + hi));
}

}  // namespace apt::sim
