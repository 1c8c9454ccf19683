// Deterministic pseudo-random number generation for nocmap.
//
// Every stochastic component in the library (workload synthesis, Monte-Carlo
// mapping, simulated annealing, the network simulator's traffic generators)
// takes an explicit Rng so that experiments are reproducible from a single
// seed. The generator is PCG32 (O'Neill, 2014): small state, excellent
// statistical quality, and cheap enough for flit-level simulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace nocmap {

/// Stateless 64-bit mixer used for seeding; also handy for hashing ids into
/// independent stream seeds.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// PCG32 generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint32_t;

  /// Seeds the generator; distinct (seed, stream) pairs give independent
  /// sequences, so parallel workers can derive per-worker streams.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffU; }

  /// Next raw 32-bit output. Defined inline: the mapper search loops draw
  /// tens of millions of values per map() call, and an out-of-line call per
  /// draw roughly doubles the cost of a Fisher–Yates shuffle.
  result_type operator()() {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform integer in [0, bound), bias-free (Lemire rejection). Inline for
  /// the same reason as operator(): it is the per-step cost of every shuffle
  /// and every neighborhood draw.
  std::uint32_t uniform_u32(std::uint32_t bound) {
    NOCMAP_REQUIRE(bound > 0, "uniform_u32 bound must be positive");
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t m = static_cast<std::uint64_t>((*this)()) * bound;
    auto lo = static_cast<std::uint32_t>(m);
    if (lo < bound) {
      const std::uint32_t threshold = (0u - bound) % bound;
      while (lo < threshold) {
        m = static_cast<std::uint64_t>((*this)()) * bound;
        lo = static_cast<std::uint32_t>(m);
      }
    }
    return static_cast<std::uint32_t>(m >> 32);
  }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [0, 1) from a single 32-bit draw. 2^-32 resolution
  /// instead of uniform()'s 2^-53 — the right trade for hot acceptance
  /// tests (SA Metropolis, GA operator rates) where the compared
  /// probability is itself far coarser than 2^-32.
  double uniform32() { return static_cast<double>((*this)()) * 0x1.0p-32; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (caches the second variate).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Lognormal: exp(Normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// In-place Fisher–Yates shuffle. The span overload shuffles storage that
  /// is not its own vector (rows of a flat genome pool); both make the same
  /// draws for the same size.
  template <typename T>
  void shuffle(std::span<T> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_u32(static_cast<std::uint32_t>(i));
      std::swap(v[i - 1], v[j]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle(std::span<T>(v));
  }

  /// A fresh generator with an independent stream derived from this one's
  /// seed material and `salt`; use for per-worker/per-node streams.
  Rng fork(std::uint64_t salt) const;

  /// `count` independent generators, one per trial: fork_streams(n)[i] is
  /// exactly fork(i). Materializing the whole family up front lets parallel
  /// trial runners hand stream i to trial i regardless of which worker
  /// executes it, so results are identical at any thread count.
  std::vector<Rng> fork_streams(std::size_t count) const;

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  std::uint64_t seed_;    // retained for fork()
  std::uint64_t stream_;  // retained for fork()
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Identity permutation 0..n-1.
std::vector<std::size_t> identity_permutation(std::size_t n);

/// Uniformly random permutation of 0..n-1.
std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng);

}  // namespace nocmap
