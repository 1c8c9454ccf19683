#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace nocmap {

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((splitmix64(stream) << 1u) | 1u), seed_(seed),
      stream_(stream) {
  // Standard PCG32 seeding sequence.
  (*this)();
  state_ += splitmix64(seed);
  (*this)();
}

double Rng::uniform() {
  // 53-bit mantissa from two draws for full double resolution.
  const std::uint64_t hi = (*this)();
  const std::uint64_t lo = (*this)();
  const std::uint64_t bits = (hi << 21) ^ (lo >> 11);
  return static_cast<double>(bits & ((1ULL << 53) - 1)) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  NOCMAP_REQUIRE(lo <= hi, "uniform requires lo <= hi");
  return lo + (hi - lo) * uniform();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  NOCMAP_REQUIRE(stddev >= 0.0, "stddev must be non-negative");
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

bool Rng::bernoulli(double p) {
  NOCMAP_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli p must be in [0,1]");
  return uniform() < p;
}

Rng Rng::fork(std::uint64_t salt) const {
  return Rng(splitmix64(seed_ ^ splitmix64(salt)),
             splitmix64(stream_ + salt * 0x9e3779b97f4a7c15ULL));
}

std::vector<Rng> Rng::fork_streams(std::size_t count) const {
  std::vector<Rng> streams;
  streams.reserve(count);
  for (std::size_t i = 0; i < count; ++i) streams.push_back(fork(i));
  return streams;
}

std::vector<std::size_t> identity_permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  return p;
}

std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng) {
  auto p = identity_permutation(n);
  rng.shuffle(p);
  return p;
}

}  // namespace nocmap
