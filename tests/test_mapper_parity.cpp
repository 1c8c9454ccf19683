// Parity pins: FNV-1a/64 digests of thread_to_tile for fixed mapper runs on
// C1 8x8 (seed 21), on the QoS-weighted C4 8x8 problem, on a 12-tile exact
// instance with an idle application, and of a service churn replay whose
// fallbacks run SSS on padded problems. Any change to an annealing chain's
// arithmetic or draw order, to the restart merge, to the cluster annealer's
// scoring, to the SSS window sweep at any worker count, to GA or MC fitness,
// to the exact solver's objective or bound, or to the handling of
// zero-traffic applications moves a pin; a refactor that must keep mappings
// bit-identical has to leave them all passing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/annealing_mapper.h"
#include "core/cluster_sa_mapper.h"
#include "core/exact_solver.h"
#include "core/genetic_mapper.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "service/replay.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem c1_problem() {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 21));
}

ObmProblem weighted_c4_problem() {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C4"), 23),
                    {2.0, 0.5, 1.0, 1.25});
}

std::string hex(std::uint64_t h) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string hexfloat(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string digest(const Mapping& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a/64 over the tile ids
  for (const TileId t : m.thread_to_tile) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (t >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return hex(h);
}

TEST(MapperParity, SaMaxAplSingleChain) {
  const ObmProblem p = c1_problem();
  AnnealingMapper sa(AnnealingParams{.seed = 21});
  EXPECT_EQ(digest(sa.map(p)), "0x54de20c4098ecdb5");
}

TEST(MapperParity, SaMaxAplFourRestarts) {
  const ObmProblem p = c1_problem();
  AnnealingMapper sa(AnnealingParams{
      .seed = 21, .restarts = 4, .parallel = ParallelConfig{2}});
  EXPECT_EQ(digest(sa.map(p)), "0x2a9901b1339faf35");
}

TEST(MapperParity, SaDevApl) {
  const ObmProblem p = c1_problem();
  AnnealingMapper sa(AnnealingParams{
      .seed = 21, .objective = AnnealObjective::kDevApl});
  EXPECT_EQ(digest(sa.map(p)), "0xa41126d0cc747075");
}

TEST(MapperParity, SaMinToMax) {
  const ObmProblem p = c1_problem();
  AnnealingMapper sa(AnnealingParams{
      .seed = 21, .objective = AnnealObjective::kMinToMax});
  EXPECT_EQ(digest(sa.map(p)), "0x4a82530886ec7e75");
}

TEST(MapperParity, ClusterSa) {
  const ObmProblem p = c1_problem();
  ClusterSaMapper csa(ClusterSaParams{.seed = 21});
  EXPECT_EQ(digest(csa.map(p)), "0x54e0f172595d6235");
}

TEST(MapperParity, SssSerialAndParallel) {
  const ObmProblem p = c1_problem();
  for (const std::size_t workers : {1u, 4u}) {
    SortSelectSwapMapper sss(SssOptions{.parallel = ParallelConfig{workers}});
    EXPECT_EQ(digest(sss.map(p)), "0x945b94ceec431e25") << workers;
  }
}

TEST(MapperParity, GeneticOneAndFourWorkers) {
  const ObmProblem p = c1_problem();
  for (const std::size_t workers : {1u, 4u}) {
    GeneticMapper ga(GeneticParams{
        .generations = 60, .seed = 21, .parallel = ParallelConfig{workers}});
    EXPECT_EQ(digest(ga.map(p)), "0xbd765772ffc64115") << workers;
  }
}

TEST(MapperParity, MonteCarloOneAndFourWorkers) {
  const ObmProblem p = c1_problem();
  for (const std::size_t workers : {1u, 4u}) {
    MonteCarloMapper mc(3000, 21, ParallelConfig{workers});
    EXPECT_EQ(digest(mc.map(p)), "0xee572e455669ced5") << workers;
  }
}

TEST(MapperParity, WeightedSss) {
  const ObmProblem p = weighted_c4_problem();
  for (const std::size_t workers : {1u, 4u}) {
    SortSelectSwapMapper sss(SssOptions{.parallel = ParallelConfig{workers}});
    EXPECT_EQ(digest(sss.map(p)), "0xd047fabaf1a76e15") << workers;
  }
}

TEST(MapperParity, WeightedClusterSa) {
  const ObmProblem p = weighted_c4_problem();
  ClusterSaMapper csa(ClusterSaParams{.seed = 21});
  EXPECT_EQ(digest(csa.map(p)), "0xeba20e5421f4cd15");
}

TEST(MapperParity, WeightedSaMaxApl) {
  const ObmProblem p = weighted_c4_problem();
  AnnealingMapper sa(AnnealingParams{.seed = 21});
  EXPECT_EQ(digest(sa.map(p)), "0x0189a8a1fcba53b5");
}

TEST(MapperParity, ExactSolverWithIdleApplication) {
  // 4x3 chip, three weighted busy applications and one idle one, so the
  // search, its bound and its objective all run past a zero-traffic app.
  Rng rng(9);
  std::vector<Application> apps(4);
  for (std::size_t a = 0; a < 3; ++a) {
    apps[a].threads.resize(3);
    for (ThreadProfile& t : apps[a].threads) {
      t = {rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0)};
    }
  }
  apps[3].threads.assign(3, ThreadProfile{0.0, 0.0});
  const ObmProblem p(TileLatencyModel(Mesh(4, 3, {0}), LatencyParams{}),
                     Workload(std::move(apps)), {1.5, 1.0, 0.75, 1.0});
  ExactSolverOptions options;
  options.max_nodes = 2'000'000;
  const ExactResult exact = solve_obm_exact(p, options);
  EXPECT_EQ(digest(exact.mapping), "0x091c4018cfc54e35");
  EXPECT_EQ(hexfloat(exact.max_apl), "0x1.b349780683d15p+3");
  EXPECT_TRUE(exact.proven_optimal);
  EXPECT_EQ(exact.nodes_explored, 9295u);
}

TEST(MapperParity, ServiceReplayWithPaddedFallbacks) {
  // Residents seldom fill the 36 tiles, so the fallback SSS mostly solves
  // snapshots padded with zero-traffic threads.
  service::TraceConfig trace;
  trace.seed = 21;
  trace.num_events = 120;
  trace.num_tiles = 36;
  trace.max_threads_per_app = 9;
  service::ServiceConfig config;
  config.migration_budget = 6;
  config.degradation_threshold = 1.05;
  config.sss.parallel = ParallelConfig::serial_config();
  service::MappingService engine(
      TileLatencyModel(Mesh::square(6), LatencyParams{}), config);
  const service::ReplayStats stats =
      service::replay_trace(engine, service::generate_trace(trace));
  EXPECT_GT(stats.fallbacks, 0u);
  EXPECT_EQ(hex(stats.digest), "0xc6bb91d7f6b0e036");
}

}  // namespace
}  // namespace nocmap
