// Race-proofing regression layer for the deterministic parallel mapping
// engine: for every parallelized algorithm (SSS window sweep + SAM fan-out,
// Monte-Carlo shards, SA restarts, GA fitness), the mapping produced at 2,
// 3 and 8 workers must be byte-identical to the 1-worker mapping on every
// seeded workload. Any scheduling-dependent read, stale snapshot
// commit, or non-canonical merge shows up here as a mapping mismatch long
// before it would show up as a subtle quality regression.
//
// Suites named *Large* run the 12x12 / 144-thread instances; they carry the
// ctest label "slow" (see tests/CMakeLists.txt) so sanitizer jobs can run
// the tier1 subset quickly, while a full `ctest` still covers them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/annealing_mapper.h"
#include "core/genetic_mapper.h"
#include "core/metrics.h"
#include "core/monte_carlo_mapper.h"
#include "core/parallel.h"
#include "core/sss_mapper.h"
#include "netsim/sim.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

constexpr std::size_t kNumSeeds = 20;
// 1 repeats the reference run; 2, 3 and 8 cover real interleavings, and 3
// splits SSS rounds and netsim row bands unevenly.
constexpr std::array<std::size_t, 4> kWorkerCounts = {1, 2, 3, 8};

/// Square mesh of the given side, four applications, C1..C8 rate statistics
/// cycled by seed so the 20 workloads span the paper's configuration table.
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

void expect_identical(const ObmProblem& problem, const Mapping& serial,
                      const Mapping& parallel, std::size_t workers,
                      std::uint64_t seed, const char* what) {
  EXPECT_EQ(serial.thread_to_tile, parallel.thread_to_tile)
      << what << ": mapping diverged at " << workers << " workers (seed "
      << seed << ")";
  // Byte-identical objectives follow from byte-identical mappings, but
  // assert them independently so a failure names the damage.
  EXPECT_EQ(evaluate(problem, serial).objective,
            evaluate(problem, parallel).objective)
      << what << ": objective diverged at " << workers << " workers (seed "
      << seed << ")";
}

// ---------------------------------------------------------------------------
// SSS: the stage-3 slice-and-stop window sweep plus the stage-2/4 SAM fan-out.

void check_sss_determinism(std::uint32_t side) {
  for (std::uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    const ObmProblem p = seeded_problem(side, seed);
    const Mapping serial =
        SortSelectSwapMapper(
            SssOptions{.parallel = ParallelConfig::serial_config()})
            .map(p);
    ASSERT_TRUE(serial.is_valid_permutation(p.num_threads()));
    for (const std::size_t workers : kWorkerCounts) {
      const Mapping parallel =
          SortSelectSwapMapper(SssOptions{.parallel = {workers}})
              .map(p);
      expect_identical(p, serial, parallel, workers, seed, "SSS");
    }
  }
}

TEST(ParallelDeterminismSss, Mesh4x4) { check_sss_determinism(4); }
TEST(ParallelDeterminismSss, Mesh8x8) { check_sss_determinism(8); }
TEST(ParallelDeterminismSssLarge, Mesh12x12) { check_sss_determinism(12); }

TEST(ParallelDeterminismSss, AblationVariantsMatchToo) {
  // The parallel protocol must hold for every stage combination, not just
  // the default pipeline.
  const ObmProblem p = seeded_problem(8, 3);
  const std::vector<SssOptions> variants = {
      {.window_swaps = false},
      {.final_sam = false},
      {.window_size = 3},
      {.max_step = 2},
  };
  for (SssOptions opt : variants) {
    opt.parallel = ParallelConfig::serial_config();
    const Mapping serial = SortSelectSwapMapper(opt).map(p);
    opt.parallel = {8};
    const Mapping parallel = SortSelectSwapMapper(opt).map(p);
    EXPECT_EQ(serial.thread_to_tile, parallel.thread_to_tile);
  }
}

// ---------------------------------------------------------------------------
// Monte-Carlo: fixed shard geometry + per-shard forked streams.

void check_mc_determinism(std::uint32_t side) {
  for (std::uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    const ObmProblem p = seeded_problem(side, seed);
    const Mapping serial =
        MonteCarloMapper(2048, seed + 1, ParallelConfig::serial_config())
            .map(p);
    for (const std::size_t workers : kWorkerCounts) {
      const Mapping parallel =
          MonteCarloMapper(2048, seed + 1, ParallelConfig{workers})
              .map(p);
      expect_identical(p, serial, parallel, workers, seed, "MC");
    }
  }
}

TEST(ParallelDeterminismMc, Mesh4x4) { check_mc_determinism(4); }
TEST(ParallelDeterminismMc, Mesh8x8) { check_mc_determinism(8); }
TEST(ParallelDeterminismMcLarge, Mesh12x12) { check_mc_determinism(12); }

// ---------------------------------------------------------------------------
// Simulated annealing: independent restart chains, canonical argmin merge.

void check_sa_determinism(std::uint32_t side) {
  for (std::uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    const ObmProblem p = seeded_problem(side, seed);
    AnnealingParams params{.iterations = 4000, .seed = seed + 1,
                           .restarts = 4};
    params.parallel = ParallelConfig::serial_config();
    const Mapping serial = AnnealingMapper(params).map(p);
    for (const std::size_t workers : kWorkerCounts) {
      params.parallel = {workers};
      const Mapping parallel = AnnealingMapper(params).map(p);
      expect_identical(p, serial, parallel, workers, seed, "SA");
    }
  }
}

TEST(ParallelDeterminismSa, Mesh4x4) { check_sa_determinism(4); }
TEST(ParallelDeterminismSa, Mesh8x8) { check_sa_determinism(8); }
TEST(ParallelDeterminismSaLarge, Mesh12x12) { check_sa_determinism(12); }

TEST(ParallelDeterminismSa, SingleRestartIsTheClassicChain) {
  // restarts=1 must reproduce the pre-parallel annealer exactly: same seed,
  // same chain, regardless of the parallel config.
  const ObmProblem p = seeded_problem(8, 7);
  AnnealingParams classic{.iterations = 10000, .seed = 42};
  AnnealingParams configured{.iterations = 10000, .seed = 42};
  configured.parallel = {8};
  EXPECT_EQ(AnnealingMapper(classic).map(p).thread_to_tile,
            AnnealingMapper(configured).map(p).thread_to_tile);
}

TEST(ParallelDeterminismSa, MoreRestartsNeverWorse) {
  // Chains 0..R-1 are a prefix of chains 0..R'-1 for R' > R, and the merge
  // keeps the best, so more restarts can only improve the objective.
  const ObmProblem p = seeded_problem(8, 11);
  AnnealingParams one{.iterations = 3000, .seed = 5, .restarts = 1};
  AnnealingParams four{.iterations = 3000, .seed = 5, .restarts = 4};
  // Note: restarts=1 uses the unforked classic stream, so compare 2 vs 4,
  // which share fork(0) and fork(1).
  AnnealingParams two{.iterations = 3000, .seed = 5, .restarts = 2};
  const double obj2 = evaluate(p, AnnealingMapper(two).map(p)).objective;
  const double obj4 = evaluate(p, AnnealingMapper(four).map(p)).objective;
  EXPECT_LE(obj4, obj2 + 1e-12);
  (void)one;
}

// ---------------------------------------------------------------------------
// Netsim scenario fan-out: each run_simulation is a pure, deterministic unit
// writing only its own result slot, so the per-app APL vectors and latency
// histograms of a for_each over scenarios must be byte-identical at any
// worker count.

std::vector<SimResult> simulate_all(const ObmProblem& p, const Mapping& m,
                                    const std::vector<SimConfig>& configs,
                                    const ParallelConfig& parallel) {
  std::vector<SimResult> results(configs.size());
  ParallelTrialRunner(parallel).for_each(configs.size(), [&](std::size_t i) {
    results[i] = run_simulation(p, m, configs[i]);
  });
  return results;
}

TEST(ParallelDeterminismNetsim, BatchAcrossWorkerCounts) {
  const ObmProblem p = seeded_problem(4, 2);
  const Mapping id = p.identity_mapping();

  std::vector<SimConfig> configs(4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].warmup_cycles = 500;
    configs[i].measure_cycles = 4000;
    configs[i].traffic.injection_scale = 1.0 + static_cast<double>(i);
  }
  const std::vector<SimResult> serial =
      simulate_all(p, id, configs, ParallelConfig::serial_config());
  ASSERT_EQ(serial.size(), configs.size());

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const std::vector<SimResult> parallel =
        simulate_all(p, id, configs, ParallelConfig{workers});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("scenario " + std::to_string(i) + " at " +
                   std::to_string(workers) + " workers");
      const SimResult& s = serial[i];
      const SimResult& q = parallel[i];
      ASSERT_EQ(q.apl.size(), s.apl.size());
      for (std::size_t a = 0; a < s.apl.size(); ++a) {
        EXPECT_EQ(q.apl[a], s.apl[a]) << "app " << a;
      }
      EXPECT_EQ(q.max_apl, s.max_apl);
      EXPECT_EQ(q.dev_apl, s.dev_apl);
      EXPECT_EQ(q.g_apl, s.g_apl);
      EXPECT_EQ(q.packets_measured, s.packets_measured);
      EXPECT_EQ(q.flits_injected, s.flits_injected);
      EXPECT_EQ(q.flits_ejected, s.flits_ejected);
      ASSERT_EQ(q.per_app_histogram.size(), s.per_app_histogram.size());
      for (std::size_t a = 0; a < s.per_app_histogram.size(); ++a) {
        const Histogram& hs = s.per_app_histogram[a];
        const Histogram& hq = q.per_app_histogram[a];
        EXPECT_EQ(hq.total(), hs.total());
        EXPECT_EQ(hq.counts(), hs.counts()) << "app " << a;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Spatially partitioned netsim (DESIGN.md §16): one simulation stepped by
// several workers over row-band domains must be bit-identical to the serial
// engine — full SimResult, histograms included. This is within-simulation
// parallelism, orthogonal to the scenario fan-out above.

void expect_sim_results_identical(const SimResult& s, const SimResult& q) {
  ASSERT_EQ(q.apl.size(), s.apl.size());
  for (std::size_t a = 0; a < s.apl.size(); ++a) {
    EXPECT_EQ(q.apl[a], s.apl[a]) << "app " << a;
  }
  EXPECT_EQ(q.max_apl, s.max_apl);
  EXPECT_EQ(q.dev_apl, s.dev_apl);
  EXPECT_EQ(q.g_apl, s.g_apl);
  EXPECT_EQ(q.packets_measured, s.packets_measured);
  EXPECT_EQ(q.local_accesses, s.local_accesses);
  EXPECT_EQ(q.flits_injected, s.flits_injected);
  EXPECT_EQ(q.flits_ejected, s.flits_ejected);
  EXPECT_EQ(q.activity.crossbar_traversals, s.activity.crossbar_traversals);
  EXPECT_EQ(q.activity.link_traversals, s.activity.link_traversals);
  EXPECT_EQ(q.activity.queue_wait_cycles, s.activity.queue_wait_cycles);
  EXPECT_EQ(q.load.max_crossbar_per_cycle, s.load.max_crossbar_per_cycle);
  EXPECT_EQ(q.load.link_utilization, s.load.link_utilization);
  ASSERT_EQ(q.per_app_histogram.size(), s.per_app_histogram.size());
  for (std::size_t a = 0; a < s.per_app_histogram.size(); ++a) {
    const Histogram& hs = s.per_app_histogram[a];
    const Histogram& hq = q.per_app_histogram[a];
    EXPECT_EQ(hq.total(), hs.total());
    EXPECT_EQ(hq.counts(), hs.counts()) << "app " << a;
  }
}

TEST(ParallelDeterminismNetsim, PartitionedSimAcrossWorkerCounts) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const ObmProblem p = seeded_problem(8, seed);
    const Mapping id = p.identity_mapping();
    SimConfig config;
    config.warmup_cycles = 500;
    config.measure_cycles = 4000;
    config.traffic.injection_scale = 1.0 + static_cast<double>(seed);
    config.sim_workers = 1;
    const SimResult serial = run_simulation(p, id, config);
    for (const std::size_t workers : kWorkerCounts) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " at " +
                   std::to_string(workers) + " sim workers");
      config.sim_workers = workers;
      expect_sim_results_identical(serial, run_simulation(p, id, config));
    }
  }
}

TEST(ParallelDeterminismNetsim, PartitionedSimComposesWithBatchWorkers) {
  // Both levels at once: scenarios fanned over scenario workers where each
  // scenario also partitions its own mesh. The two teams must not
  // interfere — results stay bit-identical to fully-serial execution.
  const ObmProblem p = seeded_problem(8, 2);
  const Mapping id = p.identity_mapping();
  std::vector<SimConfig> configs(3);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs[i].warmup_cycles = 500;
    configs[i].measure_cycles = 3000;
    configs[i].traffic.injection_scale = 1.0 + static_cast<double>(i);
  }

  const std::vector<SimResult> serial =
      simulate_all(p, id, configs, ParallelConfig::serial_config());

  std::vector<SimConfig> partitioned = configs;
  for (SimConfig& c : partitioned) c.sim_workers = 4;
  const std::vector<SimResult> nested =
      simulate_all(p, id, partitioned, ParallelConfig{2});

  ASSERT_EQ(nested.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    expect_sim_results_identical(serial[i], nested[i]);
  }
}

// ---------------------------------------------------------------------------
// Genetic search: serial breeding stream, parallel fitness slots.

TEST(ParallelDeterminismGa, Mesh8x8AcrossWorkerCounts) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const ObmProblem p = seeded_problem(8, seed);
    GeneticParams params{.population = 32, .generations = 25,
                         .seed = seed + 1};
    params.parallel = ParallelConfig::serial_config();
    const Mapping serial = GeneticMapper(params).map(p);
    for (const std::size_t workers : kWorkerCounts) {
      params.parallel = {workers};
      const Mapping parallel = GeneticMapper(params).map(p);
      expect_identical(p, serial, parallel, workers, seed, "GA");
    }
  }
}

}  // namespace
}  // namespace nocmap
