#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

namespace nocmap {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(7, 1), b(7, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformU32RespectsBound) {
  Rng rng(3);
  for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.uniform_u32(bound), bound);
    }
  }
}

TEST(Rng, UniformU32CoversAllValues) {
  Rng rng(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_u32(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformU32ZeroBoundThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_u32(0), Error);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, NormalNegativeStddevThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), Error);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.lognormal(0.0, 2.0), 0.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
  EXPECT_THROW(rng.bernoulli(1.5), Error);
  EXPECT_THROW(rng.bernoulli(-0.1), Error);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(43);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be equal
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ForkIndependence) {
  const Rng base(47);
  Rng a = base.fork(0);
  Rng b = base.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ForkDeterministic) {
  const Rng base(53);
  Rng a = base.fork(9);
  Rng b = base.fork(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Permutations, IdentityIsSortedRange) {
  const auto p = identity_permutation(5);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(p[i], i);
}

TEST(Permutations, RandomPermutationIsPermutation) {
  Rng rng(59);
  for (int trial = 0; trial < 20; ++trial) {
    auto p = random_permutation(64, rng);
    std::sort(p.begin(), p.end());
    EXPECT_EQ(p, identity_permutation(64));
  }
}

// A uniform shuffle should put element 0 in every slot equally often.
TEST(Permutations, RoughUniformity) {
  Rng rng(61);
  const std::size_t n = 8;
  std::vector<int> slot_counts(n, 0);
  const int trials = 80000;
  for (int t = 0; t < trials; ++t) {
    const auto p = random_permutation(n, rng);
    for (std::size_t i = 0; i < n; ++i) {
      if (p[i] == 0) ++slot_counts[i];
    }
  }
  const double expected = static_cast<double>(trials) / n;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(slot_counts[i], expected, expected * 0.08);
  }
}

}  // namespace
}  // namespace nocmap
