#include "core/cluster_sa_mapper.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/random_mapper.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem c1_problem(std::uint64_t seed = 91) {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), seed));
}

TEST(ClusterSa, ProducesValidPermutation) {
  const ObmProblem p = c1_problem();
  ClusterSaMapper csa(ClusterSaParams{.coarse_iterations = 500,
                                      .fine_iterations = 2000, .seed = 1});
  EXPECT_TRUE(csa.map(p).is_valid_permutation(p.num_threads()));
}

TEST(ClusterSa, DeterministicForSeed) {
  const ObmProblem p = c1_problem();
  ClusterSaMapper a(ClusterSaParams{.seed = 5});
  ClusterSaMapper b(ClusterSaParams{.seed = 5});
  EXPECT_EQ(a.map(p).thread_to_tile, b.map(p).thread_to_tile);
}

TEST(ClusterSa, BeatsRandomAverage) {
  const ObmProblem p = c1_problem();
  ClusterSaMapper csa(ClusterSaParams{.seed = 2});
  const double obj = evaluate(p, csa.map(p)).max_apl;
  RandomMapper random(7);
  double avg = 0.0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    avg += evaluate(p, random.map(p)).max_apl;
  }
  EXPECT_LT(obj, avg / trials);
}

TEST(ClusterSa, CoarseOnlyStillValid) {
  const ObmProblem p = c1_problem();
  ClusterSaMapper csa(ClusterSaParams{.coarse_iterations = 1000,
                                      .fine_iterations = 0, .seed = 3});
  EXPECT_TRUE(csa.map(p).is_valid_permutation(p.num_threads()));
}

TEST(ClusterSa, FineOnlyStillValid) {
  const ObmProblem p = c1_problem();
  ClusterSaMapper csa(ClusterSaParams{.coarse_iterations = 0,
                                      .fine_iterations = 2000, .seed = 3});
  EXPECT_TRUE(csa.map(p).is_valid_permutation(p.num_threads()));
}

TEST(ClusterSa, OddClusterSizeOnRaggedMesh) {
  // 5x5 mesh with 2-wide clusters: the last cluster row and column are
  // ragged, and ragged edges must still be handled.
  const Mesh mesh = Mesh::square(5);
  SynthesisOptions opt;
  opt.num_applications = 5;
  opt.threads_per_app = 5;
  const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                     synthesize_workload(parsec_config("C2"), 5, opt));
  ClusterSaMapper csa(ClusterSaParams{
      .coarse_iterations = 500, .fine_iterations = 1000, .seed = 4});
  EXPECT_TRUE(csa.map(p).is_valid_permutation(25));
}

TEST(ClusterSa, FinePhaseImprovesOnCoarse) {
  const ObmProblem p = c1_problem();
  double coarse_total = 0.0, full_total = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    ClusterSaMapper coarse(ClusterSaParams{
        .coarse_iterations = 2000, .fine_iterations = 0, .seed = seed});
    ClusterSaMapper full(ClusterSaParams{
        .coarse_iterations = 2000, .fine_iterations = 20000, .seed = seed});
    coarse_total += evaluate(p, coarse.map(p)).max_apl;
    full_total += evaluate(p, full.map(p)).max_apl;
  }
  EXPECT_LT(full_total, coarse_total);
}

TEST(ClusterSa, Name) { EXPECT_EQ(ClusterSaMapper().name(), "CSA"); }

}  // namespace
}  // namespace nocmap
