#include "core/genetic_mapper.h"

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/random_mapper.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem c1_problem(std::uint64_t seed = 3) {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), seed));
}

TEST(Genetic, ProducesValidPermutation) {
  const ObmProblem p = c1_problem();
  GeneticMapper ga(GeneticParams{.generations = 20, .seed = 1});
  EXPECT_TRUE(ga.map(p).is_valid_permutation(p.num_threads()));
}

TEST(Genetic, DeterministicForSeed) {
  const ObmProblem p = c1_problem();
  GeneticMapper a(GeneticParams{.generations = 15, .seed = 9});
  GeneticMapper b(GeneticParams{.generations = 15, .seed = 9});
  EXPECT_EQ(a.map(p).thread_to_tile, b.map(p).thread_to_tile);
}

TEST(Genetic, ImprovesOverRandomAverage) {
  const ObmProblem p = c1_problem();
  GeneticMapper ga(GeneticParams{.generations = 100, .seed = 2});
  const double ga_obj = evaluate(p, ga.map(p)).max_apl;
  RandomMapper random(5);
  double avg = 0.0;
  const int trials = 100;
  for (int i = 0; i < trials; ++i) {
    avg += evaluate(p, random.map(p)).max_apl;
  }
  EXPECT_LT(ga_obj, avg / trials);
}

TEST(Genetic, MoreGenerationsHelpOnAverage) {
  const ObmProblem p = c1_problem();
  double short_total = 0.0, long_total = 0.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    GeneticMapper quick(GeneticParams{.generations = 5, .seed = seed});
    GeneticMapper thorough(GeneticParams{.generations = 150, .seed = seed});
    short_total += evaluate(p, quick.map(p)).max_apl;
    long_total += evaluate(p, thorough.map(p)).max_apl;
  }
  EXPECT_LT(long_total, short_total);
}

TEST(Genetic, ElitismMonotonicBestFitness) {
  // With elitism the best individual can never regress; approximate check:
  // doubling generations with the same seed is never worse.
  const ObmProblem p = c1_problem();
  GeneticMapper g50(GeneticParams{.generations = 50, .seed = 4});
  GeneticMapper g100(GeneticParams{.generations = 100, .seed = 4});
  const double o50 = evaluate(p, g50.map(p)).max_apl;
  const double o100 = evaluate(p, g100.map(p)).max_apl;
  EXPECT_LE(o100, o50 + 1e-9);
}

TEST(Genetic, ParameterValidation) {
  const ObmProblem p = c1_problem();
  GeneticMapper tiny(GeneticParams{.population = 1});
  EXPECT_THROW(tiny.map(p), Error);
  // The population must exceed the two elites.
  GeneticMapper all_elite(GeneticParams{.population = 2});
  EXPECT_THROW(all_elite.map(p), Error);
}

TEST(Genetic, Name) { EXPECT_EQ(GeneticMapper().name(), "GA"); }

}  // namespace
}  // namespace nocmap
