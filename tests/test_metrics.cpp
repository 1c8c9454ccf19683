#include "core/metrics.h"

#include <gtest/gtest.h>

#include <numeric>


namespace nocmap {
namespace {

LatencyParams simple_params() {
  return {.td_q = 0.0, .td_s = 1.0};
}

ObmProblem make_problem_4x4() {
  const Mesh mesh = Mesh::square(4);
  Application a;
  a.name = "a";
  a.threads.assign(8, ThreadProfile{1.0, 0.5});
  Application b;
  b.name = "b";
  b.threads.assign(8, ThreadProfile{2.0, 0.0});
  return ObmProblem(TileLatencyModel(mesh, simple_params()),
                    Workload({a, b}));
}

TEST(Mapping, PermutationValidation) {
  Mapping m;
  m.thread_to_tile = {0, 1, 2, 3};
  EXPECT_TRUE(m.is_valid_permutation(4));
  EXPECT_FALSE(m.is_valid_permutation(5));
  m.thread_to_tile = {0, 1, 1, 3};
  EXPECT_FALSE(m.is_valid_permutation(4));
  m.thread_to_tile = {0, 1, 2, 9};
  EXPECT_FALSE(m.is_valid_permutation(4));
}

TEST(Mapping, InverseRoundTrip) {
  Mapping m;
  m.thread_to_tile = {2, 0, 3, 1};
  const auto inv = m.tile_to_thread();
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(inv[m.thread_to_tile[j]], j);
  }
}

TEST(Mapping, InverseRequiresValidPermutation) {
  Mapping m;
  m.thread_to_tile = {0, 0};
  EXPECT_THROW(m.tile_to_thread(), Error);
}

TEST(ObmProblem, SizeMismatchRejected) {
  const Mesh mesh = Mesh::square(4);
  Application a;
  a.threads.assign(3, ThreadProfile{1.0, 0.0});
  EXPECT_THROW(ObmProblem(TileLatencyModel(mesh, simple_params()),
                          Workload({a})),
               Error);
}

TEST(ObmProblem, IdentityMapping) {
  const ObmProblem p = make_problem_4x4();
  const Mapping m = p.identity_mapping();
  EXPECT_TRUE(m.is_valid_permutation(16));
  for (std::size_t j = 0; j < 16; ++j) EXPECT_EQ(m.tile_of(j), j);
}

// With equal rates inside an application, its APL is the plain average of
// TC over its tiles, weighted by the cache/memory split.
TEST(Metrics, HandComputedApl) {
  const Mesh mesh = Mesh::square(2);
  Application a;
  a.threads = {{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}};
  const TileLatencyModel model(mesh, simple_params());
  const ObmProblem problem(model, Workload({a}));
  const Mapping m = problem.identity_mapping();
  const LatencyReport r = evaluate(problem, m);
  double expected = 0.0;
  for (TileId t = 0; t < 4; ++t) expected += model.tc(t);
  expected /= 4.0;
  EXPECT_NEAR(r.apl[0], expected, 1e-12);
  EXPECT_NEAR(r.g_apl, expected, 1e-12);
  EXPECT_NEAR(r.max_apl, expected, 1e-12);
  EXPECT_NEAR(r.dev_apl, 0.0, 1e-12);
}

TEST(Metrics, WeightingByRates) {
  // One hot thread dominates its application's APL.
  const Mesh mesh = Mesh::square(2);
  const TileLatencyModel model(mesh, simple_params());
  Application a;
  a.threads = {{1000.0, 0.0}, {0.001, 0.0}, {0.001, 0.0}, {0.001, 0.0}};
  const ObmProblem problem(model, Workload({a}));
  const Mapping m = problem.identity_mapping();
  const LatencyReport r = evaluate(problem, m);
  EXPECT_NEAR(r.apl[0], model.tc(0), 0.01);
}

TEST(Metrics, MemoryTrafficUsesTm) {
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, simple_params());
  Application a;
  a.threads.assign(16, ThreadProfile{0.0, 1.0});  // memory-only
  const ObmProblem problem(model, Workload({a}));
  const Mapping m = problem.identity_mapping();
  const LatencyReport r = evaluate(problem, m);
  double expected = 0.0;
  for (TileId t = 0; t < 16; ++t) expected += model.tm(t);
  expected /= 16.0;
  EXPECT_NEAR(r.apl[0], expected, 1e-12);
}

TEST(Metrics, GaplIsVolumeWeightedAverageOfApls) {
  const ObmProblem p = make_problem_4x4();
  const Mapping m = p.identity_mapping();
  const LatencyReport r = evaluate(p, m);
  const Workload& wl = p.workload();
  double weighted = 0.0, volume = 0.0;
  for (std::size_t i = 0; i < wl.num_applications(); ++i) {
    double v = 0.0;
    for (std::size_t j = wl.first_thread(i); j < wl.last_thread(i); ++j) {
      v += wl.thread(j).total_rate();
    }
    weighted += r.apl[i] * v;
    volume += v;
  }
  EXPECT_NEAR(r.g_apl, weighted / volume, 1e-12);
}

TEST(Metrics, ZeroTrafficApplicationExcluded) {
  const Mesh mesh = Mesh::square(2);
  const TileLatencyModel model(mesh, simple_params());
  Application live;
  live.threads = {{1.0, 0.0}, {1.0, 0.0}};
  Application idle;
  idle.threads = {{0.0, 0.0}, {0.0, 0.0}};
  const ObmProblem problem(model, Workload({live, idle}));
  const Mapping m = problem.identity_mapping();
  const LatencyReport r = evaluate(problem, m);
  EXPECT_DOUBLE_EQ(r.apl[1], 0.0);
  EXPECT_GT(r.max_apl, 0.0);        // idle app's 0 must not be the max...
  EXPECT_DOUBLE_EQ(r.dev_apl, 0.0);  // ...nor drag the deviation
}

TEST(Metrics, InvalidMappingRejected) {
  const ObmProblem p = make_problem_4x4();
  Mapping bad;
  bad.thread_to_tile.assign(16, 0);
  EXPECT_THROW(evaluate(p, bad), Error);
}

TEST(Metrics, MinToMaxRatioReported) {
  const ObmProblem p = make_problem_4x4();
  const LatencyReport r = evaluate(p, p.identity_mapping());
  EXPECT_GT(r.min_to_max, 0.0);
  EXPECT_LE(r.min_to_max, 1.0);
}

// Permuting threads *within* one application never changes another
// application's APL (the independence property underlying SAM).
TEST(Metrics, CrossApplicationIndependence) {
  const ObmProblem p = make_problem_4x4();
  Mapping m = p.identity_mapping();
  const LatencyReport before = evaluate(p, m);
  std::swap(m.thread_to_tile[0], m.thread_to_tile[3]);  // both in app 0
  const LatencyReport after = evaluate(p, m);
  EXPECT_NEAR(before.apl[1], after.apl[1], 1e-12);
}

}  // namespace
}  // namespace nocmap
