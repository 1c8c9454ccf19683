// Tests for the differential fuzzing & invariant-checking subsystem
// (src/check/, DESIGN.md §10): scenario-generator determinism, the repro
// round trip, every oracle on clean scenarios, the shrinker, and the
// mutation-canary loop proving a seeded bug is caught and minimized.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include "check/fuzzer.h"
#include "check/oracles.h"
#include "check/scenario.h"
#include "check/shrink.h"
#include "core/cost_cache.h"
#include "util/error.h"

namespace nocmap::check {
namespace {

/// RAII enable/disable of the cost-cache fault so no test can leak the
/// canary into the rest of the suite.
struct CanaryGuard {
  CanaryGuard() { check_hooks::set_cost_cache_off_by_one(true); }
  ~CanaryGuard() { check_hooks::set_cost_cache_off_by_one(false); }
};

std::filesystem::path fresh_temp_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("nocmap_check_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(ScenarioGenerator, IsDeterministic) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xffffffffffffffffULL}) {
    const ScenarioSpec a = generate_scenario(seed);
    const ScenarioSpec b = generate_scenario(seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    EXPECT_EQ(to_repro(a), to_repro(b));
  }
}

TEST(ScenarioGenerator, SeedsProduceVariedValidSpecs) {
  std::set<std::string> distinct;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed);
    EXPECT_NO_THROW(validate_scenario(spec)) << "seed " << seed;
    EXPECT_LE(spec.num_threads(), spec.num_tiles());
    distinct.insert(to_repro(spec));
  }
  // 100 seeds must not collapse onto a handful of shapes.
  EXPECT_GT(distinct.size(), 50u);
}

TEST(ScenarioGenerator, BuildProblemPadsToTileCount) {
  const ScenarioSpec spec = generate_scenario(7);
  const ObmProblem problem = build_problem(spec);
  EXPECT_EQ(problem.num_threads(), problem.num_tiles());
  EXPECT_GE(problem.num_applications(), spec.num_applications);
}

TEST(Repro, RoundTripsExactly) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed);
    std::string oracle;
    const ScenarioSpec parsed = from_repro(to_repro(spec, "hungarian"),
                                           &oracle);
    EXPECT_EQ(parsed, spec) << "seed " << seed;
    EXPECT_EQ(oracle, "hungarian");
  }
}

TEST(Repro, RejectsMalformedInput) {
  EXPECT_THROW(from_repro("seed=1\n"), Error);          // missing keys
  EXPECT_THROW(from_repro("not a repro"), Error);       // no key=value
  const ScenarioSpec spec = generate_scenario(3);
  const std::string valid = to_repro(spec);
  EXPECT_THROW(from_repro(valid + "bogus_key=1\n"), Error);
  EXPECT_THROW(from_repro(valid + "seed=2\n"), Error);  // duplicate key

  // Numbers are whole tokens in range of their field: no numeric prefix, no
  // hex, no wrapped negative, no silent uint32 truncation.
  const auto with = [&](const std::string& key, const std::string& value) {
    std::string text = valid;
    const std::size_t at = text.find("\n" + key + "=");
    EXPECT_NE(at, std::string::npos) << key;
    const std::size_t begin = at + key.size() + 2;
    return text.replace(begin, text.find('\n', begin) - begin, value);
  };
  EXPECT_EQ(from_repro(with("mesh_side", std::to_string(spec.mesh_side))),
            spec);
  EXPECT_THROW(from_repro(with("mesh_side", "4junk")), Error);
  EXPECT_THROW(from_repro(with("torus", "0x1")), Error);
  EXPECT_THROW(from_repro(with("mesh_side", "-4")), Error);
  EXPECT_THROW(from_repro(with("mesh_side", "4294967300")), Error);

  // 65536 x 65536 threads is 2^32: the count must not wrap to 0 and pass
  // the "more threads than tiles" check.
  ScenarioSpec wrapped = spec;
  wrapped.num_applications = 65536;
  wrapped.threads_per_app = 65536;
  EXPECT_THROW(from_repro(to_repro(wrapped)), Error);
}

TEST(Repro, SaveLoadFileRoundTrip) {
  const auto dir = fresh_temp_dir("repro_io");
  const ScenarioSpec spec = generate_scenario(11);
  const std::string path = (dir / "r.scenario").string();
  save_repro(path, spec, "exact_bound");
  std::string oracle;
  EXPECT_EQ(load_repro(path, &oracle), spec);
  EXPECT_EQ(oracle, "exact_bound");
  EXPECT_THROW(load_repro((dir / "missing.scenario").string()), Error);
}

TEST(ScenarioGenerator, CoversGeneralizedAxes) {
  // The generator must actually exercise the extended scenario space:
  // stacked meshes, non-unit TSV costs, seed-drawn MC sets, and all three
  // memory-traffic modes.
  bool stacked = false, cheap_tsv = false, random_mcs = false;
  bool interleaved = false, multicast = false;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed);
    if (spec.mesh_layers > 1) stacked = true;
    if (spec.tsv_hop_cost != 1.0) cheap_tsv = true;
    if (spec.mc_placement == McPlacement::kRandom) {
      random_mcs = true;
      EXPECT_GE(spec.mc_count, 1u);
    }
    if (spec.traffic_mode == MemoryTrafficMode::kInterleaved) {
      interleaved = true;
    }
    if (spec.traffic_mode == MemoryTrafficMode::kMulticast) multicast = true;
  }
  EXPECT_TRUE(stacked);
  EXPECT_TRUE(cheap_tsv);
  EXPECT_TRUE(random_mcs);
  EXPECT_TRUE(interleaved);
  EXPECT_TRUE(multicast);
}

TEST(Scenario, ValidateRejectsBadGeneralizedCombos) {
  ScenarioSpec base = generate_scenario(1);
  base.mesh_layers = 1;
  base.torus = false;
  base.mc_placement = McPlacement::kCorners;
  base.mc_count = 0;
  ASSERT_NO_THROW(validate_scenario(base));

  ScenarioSpec torus_stack = base;
  torus_stack.torus = true;
  torus_stack.mesh_layers = 2;
  EXPECT_THROW(validate_scenario(torus_stack), Error);

  ScenarioSpec too_tall = base;
  too_tall.mesh_layers = 9;
  EXPECT_THROW(validate_scenario(too_tall), Error);

  ScenarioSpec stray_count = base;
  stray_count.mc_count = 3;  // mc_count without random placement
  EXPECT_THROW(validate_scenario(stray_count), Error);

  ScenarioSpec missing_count = base;
  missing_count.mc_placement = McPlacement::kRandom;  // random without count
  EXPECT_THROW(validate_scenario(missing_count), Error);

  ScenarioSpec bad_tsv = base;
  bad_tsv.tsv_hop_cost = 0.0;
  EXPECT_THROW(validate_scenario(bad_tsv), Error);
}

TEST(Scenario, SimulatorSupportClassifiesTorus) {
  // Satellite fix: torus scenarios must be classified as
  // simulator-unsupported up front — previously they reached the Network
  // ctor and died on its NOCMAP_REQUIRE.
  ScenarioSpec spec = generate_scenario(2);
  spec.torus = false;
  spec.mesh_layers = 1;
  EXPECT_TRUE(simulator_supported(spec));
  spec.mesh_layers = 4;
  spec.tsv_hop_cost = 0.5;
  EXPECT_TRUE(simulator_supported(spec));  // stacks simulate fine
  spec.mesh_layers = 1;
  spec.torus = true;
  spec.mc_placement = McPlacement::kCorners;
  spec.mc_count = 0;
  EXPECT_FALSE(simulator_supported(spec));
  // The netsim oracles must agree — none may claim a torus scenario.
  validate_scenario(spec);
  for (const char* name : {"netsim_conservation", "netsim_rank"}) {
    const Oracle* oracle = find_oracle(name);
    ASSERT_NE(oracle, nullptr);
    EXPECT_FALSE(oracle->applicable(spec)) << name;
  }
}

TEST(Scenario, RandomMcSetIsSeedStablePrefix) {
  ScenarioSpec spec = generate_scenario(4);
  spec.torus = false;
  spec.mesh_side = 6;
  spec.mesh_layers = 1;
  spec.tsv_hop_cost = 1.0;
  spec.mc_placement = McPlacement::kRandom;
  spec.mc_count = 6;
  validate_scenario(spec);

  const Mesh big = build_mesh(spec);
  ASSERT_EQ(big.mc_tiles().size(), 6u);
  std::set<TileId> big_set(big.mc_tiles().begin(), big.mc_tiles().end());
  EXPECT_EQ(big_set.size(), 6u);  // distinct draws

  // Shrinking the count keeps a subset of the larger set (the shrinker
  // relies on this: a smaller mc_count is the same set minus tail draws).
  spec.mc_count = 3;
  const Mesh small = build_mesh(spec);
  ASSERT_EQ(small.mc_tiles().size(), 3u);
  for (TileId mc : small.mc_tiles()) {
    EXPECT_TRUE(big_set.count(mc)) << "MC " << mc << " not in the 6-set";
  }

  // Same spec, same set — the draw depends only on the scenario seed.
  const Mesh again = build_mesh(spec);
  EXPECT_TRUE(std::equal(small.mc_tiles().begin(), small.mc_tiles().end(),
                         again.mc_tiles().begin(), again.mc_tiles().end()));
}

TEST(Repro, ClassicFormatWithoutNewKeysParses) {
  // A pre-extension repro (the v1 corpus format) carries only the classic
  // nine keys; the new ones must default to the 2D/proximity scenario.
  const std::string classic =
      "# nocmap_fuzz repro v1\n"
      "seed=42\n"
      "mesh_side=5\n"
      "mc_placement=corners\n"
      "torus=0\n"
      "config=C3\n"
      "num_applications=2\n"
      "threads_per_app=4\n"
      "injection_scale=0.75\n"
      "bursty=1\n";
  const ScenarioSpec spec = from_repro(classic);
  EXPECT_EQ(spec.mesh_layers, 1u);
  EXPECT_DOUBLE_EQ(spec.tsv_hop_cost, 1.0);
  EXPECT_EQ(spec.mc_count, 0u);
  EXPECT_EQ(spec.traffic_mode, MemoryTrafficMode::kProximity);
  EXPECT_EQ(spec.mesh_side, 5u);
  EXPECT_TRUE(spec.bursty);
}

TEST(Repro, GeneralizedScenarioRoundTrips) {
  ScenarioSpec spec = generate_scenario(6);
  spec.torus = false;
  spec.mesh_side = 4;
  spec.mesh_layers = 3;
  spec.tsv_hop_cost = 0.5;
  spec.mc_placement = McPlacement::kRandom;
  spec.mc_count = 5;
  spec.traffic_mode = MemoryTrafficMode::kMulticast;
  spec.threads_per_app = std::min(spec.threads_per_app, 8u);
  validate_scenario(spec);
  EXPECT_EQ(from_repro(to_repro(spec)), spec);
}

TEST(Oracles, RegistryLookup) {
  EXPECT_GE(all_oracles().size(), 6u);
  for (const Oracle& oracle : all_oracles()) {
    EXPECT_EQ(find_oracle(oracle.name), &oracle);
  }
  EXPECT_EQ(find_oracle("no_such_oracle"), nullptr);
}

/// Every oracle must pass on clean scenarios it declares itself applicable
/// to (three per oracle keeps the suite fast; the fuzz smoke test covers
/// breadth).
TEST(Oracles, PassOnCleanScenarios) {
  for (const Oracle& oracle : all_oracles()) {
    int ran = 0;
    for (std::uint64_t seed = 0; seed < 64 && ran < 3; ++seed) {
      const ScenarioSpec spec = generate_scenario(seed);
      if (!oracle.applicable(spec)) continue;
      ++ran;
      const OracleResult result = oracle.run(spec);
      EXPECT_TRUE(result.ok)
          << oracle.name << " failed on seed " << seed << ": "
          << result.detail;
    }
    EXPECT_EQ(ran, 3) << "no applicable scenarios found for " << oracle.name;
  }
}

TEST(Fuzzer, IterationSeedsAreDecorrelated) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 100; ++i) {
    seeds.insert(iteration_seed(1, i));
    seeds.insert(iteration_seed(2, i));
  }
  EXPECT_EQ(seeds.size(), 200u);  // overlapping bases explore new streams
  EXPECT_EQ(iteration_seed(1, 0), iteration_seed(1, 0));
}

TEST(Fuzzer, CleanRunReportsNoFailures) {
  FuzzOptions options;
  options.iterations = 10;
  options.seed = 1;
  options.repro_dir = "";  // no repro writing
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.scenarios, 10u);
  EXPECT_GT(report.oracle_checks, report.scenarios);
}

TEST(Fuzzer, RejectsUnknownOracleName) {
  FuzzOptions options;
  options.oracles = {"not_an_oracle"};
  EXPECT_THROW(run_fuzz(options), Error);
}

TEST(Fuzzer, WriteReportPublishesStats) {
  FuzzOptions options;
  options.iterations = 3;
  options.repro_dir = "";
  const FuzzReport report = run_fuzz(options);
  obs::RunReport run_report("test_check");
  write_report(options, report, run_report);
  const std::string json = run_report.root().dump(2);
  EXPECT_NE(json.find("\"fuzz\""), std::string::npos);
  EXPECT_NE(json.find("\"scenarios\": 3"), std::string::npos);
}

// --- The mutation-canary loop: seed a deliberate off-by-one into the cost
// cache and require the whole pipeline — detection, shrinking, repro
// writing, replay — to work end to end.

TEST(Canary, FuzzerCatchesSeededBugAndShrinksIt) {
  const auto dir = fresh_temp_dir("canary");
  FuzzOptions options;
  options.iterations = 10;
  options.seed = 1;
  options.repro_dir = dir.string();

  FuzzReport report;
  {
    CanaryGuard canary;
    report = run_fuzz(options);
  }
  ASSERT_EQ(report.failures.size(), 1u)
      << "seeded cost-copy bug not caught within 10 iterations";
  const FuzzFailure& failure = report.failures.front();
  EXPECT_EQ(failure.oracle, "mapper_sanity");
  EXPECT_NE(failure.detail.find("cost cache incoherent"), std::string::npos)
      << failure.detail;
  // The acceptance bar: shrunk to a trivial scenario.
  EXPECT_LE(failure.minimal.num_applications, 2u);
  EXPECT_LE(failure.minimal.threads_per_app, 2u);

  // The repro file exists, fails under the fault, and passes without it.
  ASSERT_FALSE(failure.repro_path.empty());
  ASSERT_TRUE(std::filesystem::exists(failure.repro_path));
  {
    CanaryGuard canary;
    const ReplayResult replay = replay_repro(failure.repro_path);
    EXPECT_FALSE(replay.ok);
    EXPECT_EQ(replay.oracle, "mapper_sanity");
  }
  EXPECT_TRUE(replay_repro(failure.repro_path).ok);
}

TEST(Canary, ShrinkerMinimizesLargeScenario) {
  // Start from a deliberately big spec so every phase has work to do.
  ScenarioSpec spec = generate_scenario(3);
  ASSERT_GE(spec.num_tiles(), 36u);
  const Oracle* oracle = find_oracle("mapper_sanity");
  ASSERT_NE(oracle, nullptr);

  CanaryGuard canary;
  const ShrinkResult result = shrink_scenario(spec, *oracle);
  EXPECT_FALSE(oracle->run(result.minimal).ok);
  EXPECT_EQ(result.minimal.num_applications, 1u);
  EXPECT_EQ(result.minimal.threads_per_app, 1u);
  // 2×2 meshes are fully symmetric (the off-by-one copies an identical
  // cost), so the smallest mesh that still exposes the fault is 3×3.
  EXPECT_EQ(result.minimal.mesh_side, 3u);
  EXPECT_GT(result.attempts, 0u);
  EXPECT_GT(result.accepted, 0u);
}

TEST(Canary, ShrinkIsNoOpOnPassingScenario) {
  const ScenarioSpec spec = generate_scenario(5);
  const Oracle* oracle = find_oracle("mapper_sanity");
  ASSERT_NE(oracle, nullptr);
  const ShrinkResult result = shrink_scenario(spec, *oracle);
  EXPECT_EQ(result.minimal, spec);
  EXPECT_EQ(result.accepted, 0u);
}

}  // namespace
}  // namespace nocmap::check
