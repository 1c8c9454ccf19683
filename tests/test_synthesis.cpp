#include "workload/synthesis.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

namespace nocmap {
namespace {

TEST(Table3Configs, AllEightPresent) {
  const auto configs = parsec_table3_configs();
  ASSERT_EQ(configs.size(), 8u);
  std::set<std::string> names;
  for (const auto& c : configs) names.insert(c.name);
  for (char digit = '1'; digit <= '8'; ++digit) {
    EXPECT_TRUE(names.contains(std::string{'C', digit}));
  }
}

TEST(Table3Configs, PaperValues) {
  const ConfigSpec c1 = parsec_config("C1");
  EXPECT_DOUBLE_EQ(c1.cache.mean, 7.008);
  EXPECT_DOUBLE_EQ(c1.cache.stddev, 88.3);
  EXPECT_DOUBLE_EQ(c1.memory.mean, 0.899);
  EXPECT_DOUBLE_EQ(c1.memory.stddev, 9.84);
  const ConfigSpec c7 = parsec_config("C7");
  EXPECT_DOUBLE_EQ(c7.cache.mean, 1.992);
}

TEST(Table3Configs, UnknownNameThrows) {
  EXPECT_THROW(parsec_config("C9"), Error);
  EXPECT_THROW(parsec_config(""), Error);
}

TEST(Synthesis, ShapeMatchesOptions) {
  const Workload wl = synthesize_workload(parsec_config("C1"), 1);
  EXPECT_EQ(wl.num_applications(), 4u);
  EXPECT_EQ(wl.num_threads(), 64u);
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_EQ(wl.application(a).num_threads(), 16u);
  }
}

TEST(Synthesis, ExactMeanRates) {
  for (const auto& spec : parsec_table3_configs()) {
    const Workload wl = synthesize_workload(spec, 7);
    const WorkloadMoments m = measure_moments(wl);
    EXPECT_NEAR(m.cache.mean, spec.cache.mean, 1e-9) << spec.name;
    EXPECT_NEAR(m.memory.mean, spec.memory.mean, 1e-9) << spec.name;
  }
}

TEST(Synthesis, ModerateThreadHeterogeneity) {
  // Table-3 std-devs are temporal, not per-thread (see synthesis.h); the
  // realized per-thread spread must be moderate: enough for SAM to matter,
  // not so extreme that one thread dominates an application's APL.
  const Workload wl = synthesize_workload(parsec_config("C1"), 3);
  const WorkloadMoments m = measure_moments(wl);
  const double cv = m.cache.stddev / m.cache.mean;
  EXPECT_GT(cv, 0.3);
  EXPECT_LT(cv, 2.5);
}

TEST(Synthesis, VarianceOrderingPreservedAcrossConfigs) {
  // The config with the largest Table-3 cv (C8) must synthesize a larger
  // within-thread cv than the smallest (C7).
  const WorkloadMoments hi =
      measure_moments(synthesize_workload(parsec_config("C8"), 3));
  const WorkloadMoments lo =
      measure_moments(synthesize_workload(parsec_config("C7"), 3));
  EXPECT_GT(hi.cache.stddev / hi.cache.mean, lo.cache.stddev / lo.cache.mean);
}

TEST(Synthesis, DeterministicForSeed) {
  const Workload a = synthesize_workload(parsec_config("C3"), 42);
  const Workload b = synthesize_workload(parsec_config("C3"), 42);
  ASSERT_EQ(a.num_threads(), b.num_threads());
  for (std::size_t j = 0; j < a.num_threads(); ++j) {
    EXPECT_DOUBLE_EQ(a.thread(j).cache_rate, b.thread(j).cache_rate);
    EXPECT_DOUBLE_EQ(a.thread(j).memory_rate, b.thread(j).memory_rate);
  }
}

TEST(Synthesis, DifferentSeedsDiffer) {
  const Workload a = synthesize_workload(parsec_config("C3"), 1);
  const Workload b = synthesize_workload(parsec_config("C3"), 2);
  bool any_diff = false;
  for (std::size_t j = 0; j < a.num_threads(); ++j) {
    if (a.thread(j).cache_rate != b.thread(j).cache_rate) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Synthesis, ApplicationsSortedAscendingByLoad) {
  const Workload wl = synthesize_workload(parsec_config("C4"), 5);
  for (std::size_t a = 0; a + 1 < wl.num_applications(); ++a) {
    EXPECT_LE(wl.application(a).total_rate(),
              wl.application(a + 1).total_rate());
  }
}

TEST(Synthesis, DistinctApplicationLoads) {
  // The Global-imbalance phenomenon requires a light-vs-heavy spread.
  const Workload wl = synthesize_workload(parsec_config("C1"), 9);
  const double lightest = wl.application(0).total_rate();
  const double heaviest =
      wl.application(wl.num_applications() - 1).total_rate();
  EXPECT_GT(heaviest, 1.5 * lightest);
}

TEST(Synthesis, AllRatesNonNegative) {
  const Workload wl = synthesize_workload(parsec_config("C8"), 11);
  for (const auto& t : wl.threads()) {
    EXPECT_GE(t.cache_rate, 0.0);
    EXPECT_GE(t.memory_rate, 0.0);
  }
}

TEST(Synthesis, CacheDominatesMemoryTraffic) {
  // The paper's premise (Section IV): cache rates are several times the
  // memory-controller rates (6.78x on average).
  for (const auto& spec : parsec_table3_configs()) {
    const Workload wl = synthesize_workload(spec, 13);
    double cache = 0.0, memory = 0.0;
    for (const auto& t : wl.threads()) {
      cache += t.cache_rate;
      memory += t.memory_rate;
    }
    EXPECT_GT(cache, 3.0 * memory) << spec.name;
  }
}

TEST(Synthesis, CustomOptions) {
  SynthesisOptions opt;
  opt.num_applications = 2;
  opt.threads_per_app = 8;
  opt.app_load_multipliers = {1.0, 3.0};
  const Workload wl = synthesize_workload(parsec_config("C2"), 1, opt);
  EXPECT_EQ(wl.num_applications(), 2u);
  EXPECT_EQ(wl.num_threads(), 16u);
}

TEST(Synthesis, InvalidOptionsRejected) {
  SynthesisOptions opt;
  opt.num_applications = 0;
  EXPECT_THROW(synthesize_workload(parsec_config("C1"), 1, opt), Error);
  opt.num_applications = 4;
  opt.app_load_multipliers = {};
  EXPECT_THROW(synthesize_workload(parsec_config("C1"), 1, opt), Error);
}

// FNV-1a/64 over the bits of every cache and memory rate of C1..C8 at
// seed 20140519, with 4 x 16 then 4 x 64 threads per configuration,
// recorded before the Table-3 calibration became constants: any change to
// the synthesis arithmetic or its draw order moves it.
TEST(Synthesis, Table3RatesArePinned) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::size_t per_app : {16, 64}) {
    SynthesisOptions options;
    options.threads_per_app = per_app;
    for (const ConfigSpec& spec : parsec_table3_configs()) {
      const Workload wl = synthesize_workload(spec, 20140519, options);
      ASSERT_EQ(wl.num_threads(), 4 * per_app);
      for (std::size_t j = 0; j < wl.num_threads(); ++j) {
        mix(wl.thread(j).cache_rate);
        mix(wl.thread(j).memory_rate);
      }
    }
  }
  EXPECT_EQ(h, 0xabaeae6d079efe7cULL);
}

TEST(MeasureMoments, HandComputed) {
  Application a;
  a.threads = {{1.0, 0.5}, {3.0, 1.5}};
  const Workload wl({a});
  const WorkloadMoments m = measure_moments(wl);
  EXPECT_DOUBLE_EQ(m.cache.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.cache.stddev, 1.0);
  EXPECT_DOUBLE_EQ(m.memory.mean, 1.0);
  EXPECT_DOUBLE_EQ(m.memory.stddev, 0.5);
}

}  // namespace
}  // namespace nocmap
