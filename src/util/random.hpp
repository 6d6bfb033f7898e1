// Deterministic pseudo-random utilities for the workload generator and the
// deduplication-sharing model.
//
// We avoid <random>'s distribution objects in hot paths because their output
// differs across standard-library implementations; every experiment in this
// repo must be reproducible bit-for-bit from a seed.
#pragma once

#include <cstdint>
#include <vector>

namespace backlog::util {

/// xoshiro256** — small, fast, high-quality PRNG with a splitmix64 seeder.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial.
  bool chance(double p) noexcept;

 private:
  std::uint64_t s_[4];
};

/// Zipf(α) sampler over ranks {1..n} with O(1) amortized sampling via the
/// rejection-inversion method of Hörmann & Derflinger. Used to model the
/// skewed block-sharing distribution of deduplicated data (§6.1: ~75-78% of
/// blocks have refcount 1, 18% refcount 2, 5% refcount 3, ...).
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double alpha);

  /// Sample a rank in [1, n].
  std::uint64_t sample(Rng& rng) const;

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  [[nodiscard]] double h(double x) const;
  [[nodiscard]] double h_integral(double x) const;
  [[nodiscard]] double h_integral_inverse(double x) const;

  std::uint64_t n_;
  double alpha_;
  double h_integral_x1_;
  double h_integral_n_;
  double s_;
};

/// Sample an index from an explicit discrete distribution (weights need not
/// be normalized). O(k) per sample; k is tiny for our op-mix tables.
std::size_t sample_discrete(Rng& rng, const std::vector<double>& weights);

}  // namespace backlog::util
