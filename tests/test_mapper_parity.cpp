// Parity pins: FNV-1a/64 digests of thread_to_tile for fixed mapper runs on
// C1 8x8 (seed 21), on C1 16x16 (4 x 64 threads: one n = 256 Global solve
// and the full-size SSS sweep), on the QoS-weighted C4 8x8 problem, on the
// determinism suite's 20 seeded SSS problems per mesh and its SSS stage
// combinations (one digest over each set of one-worker mappings), on a
// 12-tile exact instance with an idle application, of two service churn
// replays (one whose fallbacks run SSS on padded problems, one with no
// migration budget), of the migration-aware remaps (a fixed penalty and a
// budgeted penalty search) and of one SAM solve through sam_cost_view, plus
// one golden of the service's decision quality that tied placements leave
// alone. Any change to an annealing chain's arithmetic or draw order, to the
// restart merge, to the cluster annealer's scoring, to the assignment
// kernel's tie-breaking, to the SSS window sweep at any worker count, to GA
// or MC fitness, to the exact solver's objective or bound, to the handling
// of zero-traffic applications, to the eq.-13 cost matrix, the migration
// penalty or its search moves a pin; a refactor that must keep mappings
// bit-identical has to leave them all passing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/annealing_mapper.h"
#include "core/cluster_sa_mapper.h"
#include "core/exact_solver.h"
#include "core/genetic_mapper.h"
#include "core/global_mapper.h"
#include "core/monte_carlo_mapper.h"
#include "core/remap.h"
#include "core/sam.h"
#include "core/sss_mapper.h"
#include "obs/metrics.h"
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

ObmProblem c1_16x16_problem() {
  SynthesisOptions options;
  options.threads_per_app = 64;
  return ObmProblem(TileLatencyModel(Mesh::square(16), LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 21, options));
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

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// FNV-1a/64 over the tile ids, continued from `h`.
std::uint64_t fnv1a(std::uint64_t h, const Mapping& m) {
  for (const TileId t : m.thread_to_tile) {
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (t >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::string digest(const Mapping& m) { return hex(fnv1a(kFnvBasis, m)); }

/// test_parallel_determinism's seeded problems: a square mesh, four
/// applications, C1..C8 rate statistics cycled by seed.
ObmProblem seeded_problem(std::uint32_t side, std::uint64_t seed) {
  const Mesh mesh = Mesh::square(side);
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  const auto configs = parsec_table3_configs();
  const ConfigSpec& spec = configs[seed % configs.size()];
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(spec, 1000 + seed, opt));
}

/// One digest over the one-worker SSS mappings of the 20 seeded problems
/// that ParallelDeterminismSss compares every other worker count against.
std::string seeded_sss_digest(std::uint32_t side) {
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    h = fnv1a(h, SortSelectSwapMapper().map(seeded_problem(side, seed)));
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
    EXPECT_EQ(digest(sss.map(p)), "0xa6dd96ad64c483f5") << workers;
  }
}

TEST(MapperParity, Global) {
  EXPECT_EQ(digest(GlobalMapper().map(c1_problem())), "0x897fd249c89bb485");
}

TEST(MapperParity, GlobalAt16x16) {
  EXPECT_EQ(digest(GlobalMapper().map(c1_16x16_problem())),
            "0x19ed71ab760ac475");
}

TEST(MapperParity, SssAt16x16SerialAndParallel) {
  const ObmProblem p = c1_16x16_problem();
  for (const std::size_t workers : {1u, 4u}) {
    SortSelectSwapMapper sss(SssOptions{.parallel = ParallelConfig{workers}});
    EXPECT_EQ(digest(sss.map(p)), "0x86b25179ff2e6675") << workers;
  }
}

TEST(MapperParity, SssSeededProblemsAt4x4) {
  EXPECT_EQ(seeded_sss_digest(4), "0xf9aa662ce0c38c55");
}

TEST(MapperParity, SssSeededProblemsAt8x8) {
  EXPECT_EQ(seeded_sss_digest(8), "0xf4ccb9cd4c3aeae5");
}

TEST(MapperParity, SssAblationVariants) {
  // ParallelDeterminismSss.AblationVariantsMatchToo's stage combinations.
  const ObmProblem p = seeded_problem(8, 3);
  std::uint64_t h = kFnvBasis;
  for (const SssOptions& opt : {SssOptions{.window_swaps = false},
                                SssOptions{.final_sam = false},
                                SssOptions{.window_size = 3},
                                SssOptions{.max_step = 2}}) {
    h = fnv1a(h, SortSelectSwapMapper(opt).map(p));
  }
  EXPECT_EQ(hex(h), "0x369ff3f84ab370c5");
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
    EXPECT_EQ(digest(sss.map(p)), "0x314168a26d8eae45") << workers;
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

service::ReplayStats churn_replay(std::size_t migration_budget) {
  // Residents seldom fill the 36 tiles, so the fallback SSS mostly solves
  // snapshots padded with zero-traffic threads.
  service::TraceConfig trace;
  trace.seed = 21;
  trace.num_events = 120;
  trace.num_tiles = 36;
  trace.max_threads_per_app = 9;
  service::ServiceConfig config;
  config.migration_budget = migration_budget;
  config.degradation_threshold = 1.05;
  config.sss.parallel = ParallelConfig::serial_config();
  service::MappingService engine(
      TileLatencyModel(Mesh::square(6), LatencyParams{}), config);
  return service::replay_trace(engine, service::generate_trace(trace));
}

TEST(MapperParity, ServiceReplayWithPaddedFallbacks) {
  const service::ReplayStats stats = churn_replay(6);
  EXPECT_GT(stats.fallbacks, 0u);
  EXPECT_EQ(hex(stats.digest), "0x92c28e61a8852de4");
}

TEST(MapperParity, ServiceReplayWithZeroBudget) {
  // Every over-budget phase change keeps its threads in place, and no
  // fallback can run.
  const service::ReplayStats stats = churn_replay(0);
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(stats.moved_threads, 0u);
  EXPECT_EQ(hex(stats.digest), "0x3ee0bd4b0b091bb1");
}

TEST(MapperParity, ServiceDecisionQuality) {
  // What every decision achieves, not where it puts the threads: tied
  // placements (mirror-symmetric tiles tie often) may swap without moving
  // this pin. A 2,000-event trace on the 8x8 chip at budget 8 and
  // threshold 1.15, so over-budget phase changes search the penalty and
  // fallbacks run.
  service::TraceConfig trace;
  trace.seed = 21;
  trace.num_events = 2000;
  trace.num_tiles = 64;
  service::ServiceConfig config;
  config.migration_budget = 8;
  config.degradation_threshold = 1.15;
  service::MappingService engine(
      TileLatencyModel(Mesh::square(8), LatencyParams{}), config);
  const auto searches = [] {
    for (const obs::MetricRow& row : obs::snapshot()) {
      if (row.name == "remap.penalty_searches") return row.count;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t searches_before = searches();
  const service::ReplayStats stats =
      service::replay_trace(engine, service::generate_trace(trace));
  EXPECT_GT(stats.fallbacks, 0u);
  if (obs::compiled_in()) {
    EXPECT_GT(searches(), searches_before);
  }
  std::uint64_t h = 0;
  for (const service::Decision& d : stats.decisions) {
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(d.kind), std::uint64_t{d.accepted},
          std::uint64_t{d.used_fallback}, std::uint64_t{d.quality_degraded},
          std::bit_cast<std::uint64_t>(d.objective),
          std::bit_cast<std::uint64_t>(d.lower_bound),
          std::uint64_t{d.residents}, std::uint64_t{d.occupied_tiles}}) {
      h = splitmix64(h ^ v);
    }
  }
  EXPECT_EQ(hex(h), "0x55404dc19382c95b");
}

TEST(MapperParity, RemapBalancedWithPenalty) {
  // test_remap's C1 -> C3 application change at a migration penalty of 5.
  const Mesh mesh = Mesh::square(8);
  const ObmProblem p_old(TileLatencyModel(mesh, LatencyParams{}),
                         synthesize_workload(parsec_config("C1"), 51));
  const ObmProblem p_new(TileLatencyModel(mesh, LatencyParams{}),
                         synthesize_workload(parsec_config("C3"), 52));
  const Mapping old = SortSelectSwapMapper().map(p_old);
  const RemapResult r = remap_balanced(p_new, old, 5.0);
  EXPECT_EQ(digest(r.mapping), "0xd1e80183e7d66d35");
  EXPECT_EQ(r.moved_threads, 14u);
}

TEST(MapperParity, RemapBudgetedPenaltySearch) {
  // The zero-penalty remap of the SSS mapping with three within-application
  // swaps: no move is forced, undoing the swaps takes six, and a budget of
  // two makes the penalty search run.
  const ObmProblem p = c1_problem();
  const Mapping fresh = SortSelectSwapMapper().map(p);
  Mapping old = remap_balanced(p, fresh, 0.0).mapping;
  const Workload& wl = p.workload();
  for (std::size_t a = 0; a < 3; ++a) {
    const std::size_t lo = wl.first_thread(a);
    ASSERT_GT(wl.thread(lo).total_rate(), 0.0);
    ASSERT_GT(wl.thread(lo + 1).total_rate(), 0.0);
    std::swap(old.thread_to_tile[lo], old.thread_to_tile[lo + 1]);
  }
  ASSERT_EQ(remap_balanced(p, old, 0.0).moved_threads, 6u);
  const BudgetedRemapResult r = remap_budgeted(p, old, 2);
  ASSERT_FALSE(r.reverted_to_old);
  ASSERT_GT(r.penalty_cycles, 0.0);
  EXPECT_LE(r.remap.moved_threads, 2u);
  EXPECT_EQ(digest(r.remap.mapping), "0x0b71520a71bb1375");
  // The exact breakpoint: within the 2^-24 grid step below the point a
  // 24-step bisection of [0, 1] lands on, and the move count changes
  // across it.
  const double lambda = r.penalty_cycles;
  EXPECT_EQ(hexfloat(lambda), "0x1.f359d23afbfe2p-5");
  EXPECT_GT(lambda, 0x1.f359ep-5 - 0x1p-24);
  EXPECT_LE(lambda, 0x1.f359ep-5);
  EXPECT_LE(remap_balanced(p, old, lambda * (1 + 1e-9)).moved_threads, 2u);
  EXPECT_GT(remap_balanced(p, old, lambda * (1 - 1e-9)).moved_threads, 2u);
}

TEST(MapperParity, ProfileSam) {
  // Twelve random threads onto every fifth tile of the 8x8 chip.
  Rng rng(13);
  std::vector<ThreadProfile> threads(12);
  for (ThreadProfile& t : threads) {
    t = {rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0)};
  }
  std::vector<TileId> tiles(threads.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    tiles[t] = static_cast<TileId>(5 * t);
  }
  // The service's route: eq. 13 from the profiles, one cold solve.
  const TileLatencyModel model(Mesh::square(8), LatencyParams{});
  std::vector<double> cost;
  AssignmentWorkspace ws;
  const Assignment& a = ws.solve(sam_cost_view(threads, tiles, model, cost));
  double volume = 0.0;
  for (const ThreadProfile& t : threads) volume += t.total_rate();
  Mapping m;
  for (const std::size_t col : a.row_to_col) {
    m.thread_to_tile.push_back(tiles[col]);
  }
  EXPECT_EQ(digest(m), "0x6a1ca06fd0991645");
  EXPECT_EQ(hexfloat(a.total_cost / volume), "0x1.56769bed637ecp+4");
}

}  // namespace
}  // namespace nocmap
