#include "abft/util/rng.hpp"

#include <cmath>
#include <numbers>

#include "abft/util/check.hpp"

namespace abft::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ABFT_REQUIRE(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t bound) {
  ABFT_REQUIRE(bound > 0, "uniform_index needs bound > 0");
  // Reject draws below 2^64 mod bound, which is itself below bound: a draw
  // at or above bound passes without that second modulo.
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= bound || r >= -bound % bound) return r % bound;
  }
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  // Box–Muller on (0,1] to avoid log(0).
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * std::numbers::pi * u2;
  spare_normal_ = radius * std::sin(angle);
  has_spare_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double stddev) {
  ABFT_REQUIRE(stddev >= 0.0, "normal(mean, stddev) needs stddev >= 0");
  return mean + stddev * normal();
}

std::vector<double> Rng::normal_vector(int k) {
  ABFT_REQUIRE(k >= 0, "normal_vector needs k >= 0");
  std::vector<double> out(static_cast<std::size_t>(k));
  for (auto& v : out) v = normal();
  return out;
}

double Rng::gamma(double shape) {
  ABFT_REQUIRE(shape > 0.0, "gamma needs shape > 0");
  if (shape < 1.0) {
    // Boost: X ~ Gamma(shape + 1), U^(1/shape) X ~ Gamma(shape).
    const double u = 1.0 - uniform();  // (0, 1]: the exponent may be huge
    return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia & Tsang (2000): squeeze on d (V)^3 with V = (1 + c Z)^3.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double z = 0.0;
    double v = 0.0;
    do {
      z = normal();
      v = 1.0 + c * z;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = 1.0 - uniform();  // (0, 1]: log(u) must be finite
    if (u < 1.0 - 0.0331 * (z * z) * (z * z)) return d * v;
    if (std::log(u) < 0.5 * z * z + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> Rng::dirichlet(double alpha, int k) {
  ABFT_REQUIRE(k >= 1, "dirichlet needs k >= 1");
  std::vector<double> weights(static_cast<std::size_t>(k));
  double total = 0.0;
  for (auto& w : weights) {
    w = gamma(alpha);
    total += w;
  }
  if (total <= 0.0) {
    // All draws underflowed (alpha so small every Gamma mass sits below
    // double range).  The alpha -> 0 limit is winner-take-all — one
    // category holds all the mass — so degrade to that, not to the uniform
    // simplex (which is the alpha -> infinity limit).
    const auto winner = static_cast<std::size_t>(uniform_index(static_cast<std::uint64_t>(k)));
    for (auto& w : weights) w = 0.0;
    weights[winner] = 1.0;
    return weights;
  }
  for (auto& w : weights) w /= total;
  return weights;
}

std::vector<int> Rng::permutation(int n) {
  ABFT_REQUIRE(n >= 0, "permutation needs n >= 0");
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(uniform_index(static_cast<std::uint64_t>(i) + 1));
    std::swap(idx[static_cast<std::size_t>(i)], idx[j]);
  }
  return idx;
}

std::vector<int> Rng::sample_without_replacement(int n, int k) {
  ABFT_REQUIRE(0 <= k && k <= n, "sample_without_replacement needs 0 <= k <= n");
  std::vector<int> perm = permutation(n);
  perm.resize(static_cast<std::size_t>(k));
  return perm;
}

Rng Rng::split() noexcept {
  // A fresh generator seeded from this one's stream; streams are
  // independent for all practical purposes.
  return Rng(next_u64());
}

}  // namespace abft::util
