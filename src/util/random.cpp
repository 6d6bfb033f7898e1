#include "util/random.hpp"

#include <cmath>
#include <stdexcept>

#include "util/hash.hpp"

namespace backlog::util {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // splitmix64 expansion of the seed into the four state words.
  std::uint64_t x = seed;
  for (auto& s : s_) {
    x += 0x9e3779b97f4a7c15ULL;
    s = mix64(x);
  }
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) noexcept {
  return lo + below(hi - lo + 1);
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

ZipfSampler::ZipfSampler(std::uint64_t n, double alpha) : n_(n), alpha_(alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be positive");
  if (alpha <= 0.0) throw std::invalid_argument("ZipfSampler: alpha must be > 0");
  h_integral_x1_ = h_integral(1.5) - 1.0;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  s_ = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
}

double ZipfSampler::h(double x) const { return std::exp(-alpha_ * std::log(x)); }

double ZipfSampler::h_integral(double x) const {
  const double log_x = std::log(x);
  // Stable evaluation of (exp((1-a) log x) - 1) / (1-a), including a ~= 1.
  const double t = (1.0 - alpha_) * log_x;
  double v;
  if (std::fabs(t) > 1e-8) {
    v = std::expm1(t) / (1.0 - alpha_);
  } else {
    v = log_x * (1.0 + t / 2.0 + t * t / 6.0);
  }
  return v;
}

double ZipfSampler::h_integral_inverse(double x) const {
  double t = x * (1.0 - alpha_);
  if (t < -1.0) t = -1.0;  // guard rounding at the left boundary
  if (std::fabs(t) > 1e-8) {
    return std::exp(std::log1p(t) / (1.0 - alpha_));
  }
  return std::exp(x * (1.0 - x * alpha_ / 2.0));
}

std::uint64_t ZipfSampler::sample(Rng& rng) const {
  if (n_ == 1) return 1;
  while (true) {
    const double u =
        h_integral_n_ + rng.uniform() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n_) k = n_;
    const double kd = static_cast<double>(k);
    if (kd - x <= s_ || u >= h_integral(kd + 0.5) - h(kd)) {
      return k;
    }
  }
}

std::size_t sample_discrete(Rng& rng, const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) throw std::invalid_argument("sample_discrete: no mass");
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    u -= weights[i];
    if (u < 0) return i;
  }
  return weights.size() - 1;
}

}  // namespace backlog::util
