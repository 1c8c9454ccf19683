// Campaign sweep engine tests (src/sweep/): spec parsing strictness,
// deterministic expansion, and the resumability contract — a campaign
// killed after N scenarios and resumed, at any worker count, produces a
// byte-identical frontier document (docs/campaigns.md "Determinism").
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sweep/aggregate.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/error.h"

namespace nocmap::sweep {
namespace {

namespace fs = std::filesystem;

/// Small but non-trivial campaign: 2 mesh sides x 2 configs x 2 injections
/// x 2 seeds x 2 mappers = 32 scenarios, netsim on so the simulated stage
/// and the power fold are covered too.
CampaignSpec test_spec() {
  CampaignSpec spec;
  spec.name = "test-campaign";
  spec.mesh_side = {4, 8};
  spec.config = {"C1", "C3"};
  spec.num_applications = {2};
  spec.injection_scale = {0.5, 1.0};
  spec.seed = {1, 2};
  spec.mappers = {"Global", "SSS"};
  spec.netsim.enabled = true;
  spec.netsim.warmup_cycles = 100;
  spec.netsim.measure_cycles = 1000;
  spec.netsim.max_drain_cycles = 10000;
  return spec;
}

/// Fresh scratch directory under the test binary's cwd.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path("sweep_test_scratch") / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// The campaign log with every map_us (the one intentionally
/// non-reproducible field) zeroed, for cross-run comparison.
std::string normalized_log(const fs::path& path) {
  CampaignLog log = read_campaign_log(path.string());
  std::string out = log.header.dump(0) + "\n";
  for (obs::JsonValue& record : log.records) {
    record["map_us"] = 0.0;
    out += record.dump(0) + "\n";
  }
  return out;
}

// ------------------------------------------------------------ spec parsing

TEST(SweepSpec, ParsesAxesAndOptions) {
  const CampaignSpec spec = parse_spec(std::string(R"({
    "schema": "nocmap.sweep_spec/1",
    "name": "demo",
    "axes": {
      "mesh_side": [4, 8],
      "topology": ["mesh", "torus"],
      "config": ["C1"],
      "injection_scale": [0.25],
      "seed": {"base": 10, "count": 3}
    },
    "mappers": ["Global", "SA"],
    "mapper_options": {"sa_iterations": 500},
    "netsim": {"enabled": true, "measure_cycles": 5000}
  })"));
  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.mesh_side, (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(spec.torus, (std::vector<bool>{false, true}));
  EXPECT_EQ(spec.seed.base, 10u);
  EXPECT_EQ(spec.seed.count, 3u);
  EXPECT_EQ(spec.mappers, (std::vector<std::string>{"Global", "SA"}));
  EXPECT_EQ(spec.mapper_options.sa_iterations, 500u);
  EXPECT_TRUE(spec.netsim.enabled);
  EXPECT_EQ(spec.netsim.measure_cycles, 5000u);
  // Unset axes keep their defaults.
  EXPECT_EQ(spec.num_applications, (std::vector<std::uint32_t>{4}));
}

TEST(SweepSpec, RejectsUnknownAndInvalidInput) {
  const char* bad_specs[] = {
      // Unknown top-level key.
      R"({"schema":"nocmap.sweep_spec/1","name":"x","typo":1})",
      // Unknown axis (a misspelling must not collapse to defaults).
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"mesh_sides":[4]}})",
      // Missing schema / name.
      R"({"name":"x"})",
      R"({"schema":"nocmap.sweep_spec/1"})",
      // Wrong schema, empty axis, bad values.
      R"({"schema":"nocmap.sweep_spec/2","name":"x"})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"mesh_side":[]}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"mesh_side":[65]}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"injection_scale":[2.5]}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"config":["C99"]}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "mappers":["Bogus"]})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "mappers":["SSS","SSS"]})",
      // Counts above 10^9 (near 2^64 they crashed MC and hung the netsim).
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "mapper_options":{"mc_trials":18446744073709551615}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "mapper_options":{"sa_iterations":1000000001}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "netsim":{"warmup_cycles":18446744073709551615}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "netsim":{"measure_cycles":1000000001}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "netsim":{"max_drain_cycles":1000000001}})",
  };
  for (const char* text : bad_specs) {
    EXPECT_THROW((void)parse_spec(std::string(text)), Error) << text;
  }
}

TEST(SweepSpec, DigestTracksCanonicalFormOnly) {
  const CampaignSpec a = test_spec();
  CampaignSpec b = test_spec();
  EXPECT_EQ(spec_digest(a), spec_digest(b));
  b.seed.count = 3;
  EXPECT_NE(spec_digest(a), spec_digest(b));
  // The canonical form parses back to the same digest (defaults are
  // explicit, so canonical -> parse -> canonical is a fixed point).
  const CampaignSpec reparsed = parse_spec(spec_to_json(a));
  EXPECT_EQ(spec_digest(reparsed), spec_digest(a));
}

// -------------------------------------------------------------- expansion

TEST(SweepExpand, IsDeterministicWithDenseIdsAndMapperInnermost) {
  const CampaignSpec spec = test_spec();
  const Expansion a = expand_spec(spec);
  const Expansion b = expand_spec(spec);
  ASSERT_EQ(a.scenarios.size(), 32u);
  EXPECT_EQ(a.combinations, 32u);
  EXPECT_EQ(a.skipped, 0u);
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    EXPECT_EQ(a.scenarios[i].id, i);
    EXPECT_EQ(a.scenarios[i].spec, b.scenarios[i].spec);
    EXPECT_EQ(a.scenarios[i].mapper, b.scenarios[i].mapper);
  }
  // Mapper is the innermost axis: consecutive records alternate mappers
  // over one base scenario.
  EXPECT_EQ(a.scenarios[0].mapper, "Global");
  EXPECT_EQ(a.scenarios[1].mapper, "SSS");
  EXPECT_EQ(a.scenarios[0].spec, a.scenarios[1].spec);
}

TEST(SweepExpand, SkipsInvalidCombinationsOrThrows) {
  CampaignSpec spec = test_spec();
  spec.netsim.enabled = false;
  // 4x4 cannot hold 8 apps x 4 threads; 8x8 can.
  spec.num_applications = {8};
  spec.threads_per_app = {4};
  const Expansion skipped = expand_spec(spec);
  EXPECT_EQ(skipped.combinations, 32u);
  EXPECT_EQ(skipped.skipped, 16u);
  EXPECT_EQ(skipped.scenarios.size(), 16u);
  for (const SweepScenario& s : skipped.scenarios) {
    EXPECT_EQ(s.spec.mesh_side, 8u);
  }

  spec.skip_invalid = false;
  EXPECT_THROW((void)expand_spec(spec), Error);
}

TEST(SweepExpand, ZeroThreadsPerAppFillsTheMesh) {
  CampaignSpec spec;
  spec.name = "fill";
  spec.mesh_side = {8};
  spec.num_applications = {4};
  spec.threads_per_app = {0};
  const Expansion expansion = expand_spec(spec);
  ASSERT_EQ(expansion.scenarios.size(), 1u);
  EXPECT_EQ(expansion.scenarios[0].spec.threads_per_app, 16u);
}

// ------------------------------------------------- generalized scenario axes

TEST(SweepSpec, ParsesGeneralizedAxes) {
  const CampaignSpec spec = parse_spec(std::string(R"({
    "schema": "nocmap.sweep_spec/1",
    "name": "stacked",
    "axes": {
      "mesh_side": [4],
      "mesh_layers": [1, 2, 4],
      "tsv_hop_cost": [0.5, 1.0],
      "mc_placement": ["corners", "random"],
      "mc_count": 3,
      "traffic_mode": ["proximity", "interleaved", "multicast"]
    },
    "mappers": ["SSS"]
  })"));
  EXPECT_EQ(spec.mesh_layers, (std::vector<std::uint32_t>{1, 2, 4}));
  EXPECT_EQ(spec.tsv_hop_cost, (std::vector<double>{0.5, 1.0}));
  EXPECT_EQ(spec.mc_count, 3u);
  EXPECT_EQ(spec.mc_placement,
            (std::vector<McPlacement>{McPlacement::kCorners,
                                      McPlacement::kRandom}));
  EXPECT_EQ(spec.traffic_mode,
            (std::vector<MemoryTrafficMode>{MemoryTrafficMode::kProximity,
                                            MemoryTrafficMode::kInterleaved,
                                            MemoryTrafficMode::kMulticast}));

  const char* bad_specs[] = {
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"mesh_layers":[9]}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"tsv_hop_cost":[0.0]}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"traffic_mode":["bogus"]}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"mc_count":0}})",
      R"({"schema":"nocmap.sweep_spec/1","name":"x",
          "axes":{"mc_placement":["nonsense"]}})",
  };
  for (const char* text : bad_specs) {
    EXPECT_THROW((void)parse_spec(std::string(text)), Error) << text;
  }
}

TEST(SweepExpand, FillsGeneralizedScenarioFields) {
  CampaignSpec spec;
  spec.name = "general";
  spec.mesh_side = {4};
  spec.mesh_layers = {2};
  spec.tsv_hop_cost = {0.5};
  spec.mc_placement = {McPlacement::kRandom};
  spec.mc_count = 3;
  spec.traffic_mode = {MemoryTrafficMode::kMulticast};
  spec.num_applications = {2};
  const Expansion expansion = expand_spec(spec);
  ASSERT_EQ(expansion.scenarios.size(), 1u);
  const check::ScenarioSpec& s = expansion.scenarios[0].spec;
  EXPECT_EQ(s.mesh_layers, 2u);
  EXPECT_DOUBLE_EQ(s.tsv_hop_cost, 0.5);
  EXPECT_EQ(s.mc_placement, McPlacement::kRandom);
  EXPECT_EQ(s.mc_count, 3u);
  EXPECT_EQ(s.traffic_mode, MemoryTrafficMode::kMulticast);
  // "fill" threads-per-app sentinel accounts for all layers: 32 tiles / 2.
  EXPECT_EQ(s.threads_per_app, 16u);
}

TEST(SweepExpand, SkipsTorusStacksAndOversizedRandomSets) {
  // Torus wraparound is 2D-only: every (torus, layers>1) grid point is an
  // invalid combo, skipped rather than fatal.
  CampaignSpec spec;
  spec.name = "torus3d";
  spec.mesh_side = {4};
  spec.mesh_layers = {1, 2};
  spec.torus = {false, true};
  spec.num_applications = {2};
  const Expansion expansion = expand_spec(spec);
  EXPECT_EQ(expansion.combinations, 4u);
  EXPECT_EQ(expansion.skipped, 1u);  // torus + 2 layers
  for (const SweepScenario& s : expansion.scenarios) {
    EXPECT_TRUE(!s.spec.torus || s.spec.mesh_layers == 1);
  }
  spec.skip_invalid = false;
  EXPECT_THROW((void)expand_spec(spec), Error);

  // A random MC set larger than the chip is likewise an invalid combo.
  CampaignSpec random_spec;
  random_spec.name = "bigset";
  random_spec.mesh_side = {2, 8};
  random_spec.mc_placement = {McPlacement::kRandom};
  random_spec.mc_count = 16;  // > 4 tiles on the 2x2, fine on the 8x8
  random_spec.num_applications = {1};
  const Expansion rand_exp = expand_spec(random_spec);
  EXPECT_EQ(rand_exp.combinations, 2u);
  EXPECT_EQ(rand_exp.skipped, 1u);
  ASSERT_EQ(rand_exp.scenarios.size(), 1u);
  EXPECT_EQ(rand_exp.scenarios[0].spec.mesh_side, 8u);
}

// Satellite fix pinned: torus grid points used to reach run_simulation and
// abort on the Network ctor's NOCMAP_REQUIRE; they must instead skip the
// netsim stage (sim: null) while the analytic stage still runs.
TEST(SweepRunner, TorusScenariosSkipNetsimStage) {
  CampaignSpec spec;
  spec.name = "torus-netsim";
  spec.mesh_side = {4};
  spec.torus = {false, true};
  spec.num_applications = {2};
  spec.mappers = {"Global"};
  spec.netsim.enabled = true;
  spec.netsim.warmup_cycles = 100;
  spec.netsim.measure_cycles = 500;
  spec.netsim.max_drain_cycles = 10000;

  const fs::path dir = scratch_dir("torus_netsim");
  CampaignOptions options;
  options.out_dir = dir.string();
  options.parallel.num_threads = 1;
  ASSERT_TRUE(run_campaign(spec, options).finished);

  const CampaignLog log =
      read_campaign_log((dir / "campaign.jsonl").string());
  ASSERT_EQ(log.records.size(), 2u);
  int simulated = 0, skipped = 0;
  for (const obs::JsonValue& record : log.records) {
    const bool torus = record.find("topology")->as_string() == "torus";
    const bool has_sim = !record.find("sim")->is_null();
    EXPECT_GT(record.find("max_apl")->as_double(), 0.0);  // analytic ran
    EXPECT_NE(torus, has_sim);
    (torus ? skipped : simulated)++;
  }
  EXPECT_EQ(simulated, 1);
  EXPECT_EQ(skipped, 1);
}

// ----------------------------------------------------------- resumability

/// The tentpole contract: run the campaign to completion three ways —
/// serial in one shot, 2 workers killed after 5 scenarios (plus a torn
/// trailing write) then resumed, 8 workers with a ragged chunk size — and
/// require byte-identical logs (modulo map_us) and byte-identical frontier
/// documents.
TEST(SweepResume, KillAndResumeIsByteIdenticalAcrossWorkerCounts) {
  const CampaignSpec spec = test_spec();

  // Reference: serial, uninterrupted.
  const fs::path dir1 = scratch_dir("serial");
  CampaignOptions serial;
  serial.out_dir = dir1.string();
  serial.parallel.num_threads = 1;
  const CampaignResult ref = run_campaign(spec, serial);
  EXPECT_TRUE(ref.finished);
  EXPECT_EQ(ref.completed, 32u);

  // 2 workers: kill after 5 scenarios, tear the tail, resume.
  const fs::path dir2 = scratch_dir("two_workers");
  CampaignOptions two;
  two.out_dir = dir2.string();
  two.parallel.num_threads = 2;
  two.chunk_size = 5;
  two.max_scenarios = 5;
  const CampaignResult killed = run_campaign(spec, two);
  EXPECT_FALSE(killed.finished);
  EXPECT_EQ(killed.completed, 5u);
  const fs::path log2 = dir2 / "campaign.jsonl";
  // Simulate dying mid-write: append half a record.
  {
    std::ofstream out(log2, std::ios::binary | std::ios::app);
    out << "{\"id\":5,\"index\":5,\"seed\":1,\"mesh_si";
  }
  two.max_scenarios = 0;
  const CampaignResult resumed = run_campaign(spec, two);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.resumed, 5u);
  EXPECT_EQ(resumed.completed, 27u);

  // 8 workers, chunk size that does not divide the total.
  const fs::path dir8 = scratch_dir("eight_workers");
  CampaignOptions eight;
  eight.out_dir = dir8.string();
  eight.parallel.num_threads = 8;
  eight.chunk_size = 7;
  EXPECT_TRUE(run_campaign(spec, eight).finished);

  const std::string norm1 = normalized_log(dir1 / "campaign.jsonl");
  EXPECT_EQ(norm1, normalized_log(log2));
  EXPECT_EQ(norm1, normalized_log(dir8 / "campaign.jsonl"));

  const std::string frontier1 = aggregate_file((dir1 / "campaign.jsonl")
                                                   .string())
                                    .dump(2);
  EXPECT_EQ(frontier1, aggregate_file(log2.string()).dump(2));
  EXPECT_EQ(frontier1,
            aggregate_file((dir8 / "campaign.jsonl").string()).dump(2));
}

TEST(SweepResume, RefusesAForeignLog) {
  const CampaignSpec spec = test_spec();
  const fs::path dir = scratch_dir("foreign");
  CampaignOptions options;
  options.out_dir = dir.string();
  options.parallel.num_threads = 1;
  options.max_scenarios = 2;
  (void)run_campaign(spec, options);

  // Same directory, different spec: digest mismatch must throw.
  CampaignSpec other = test_spec();
  other.seed.count = 3;
  EXPECT_THROW((void)run_campaign(other, options), Error);

  // A non-campaign file must be rejected, not resumed over.
  {
    std::ofstream out(dir / "campaign.jsonl",
                      std::ios::binary | std::ios::trunc);
    out << "{\"schema\":\"something.else/1\"}\n";
  }
  EXPECT_THROW((void)run_campaign(spec, options), Error);
}

TEST(SweepResume, ReadLogStopsAtCorruptTail) {
  const CampaignSpec spec = test_spec();
  const fs::path dir = scratch_dir("torn");
  CampaignOptions options;
  options.out_dir = dir.string();
  options.parallel.num_threads = 1;
  options.max_scenarios = 3;
  (void)run_campaign(spec, options);

  const fs::path path = dir / "campaign.jsonl";
  const std::string original = read_file(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "not json at all\n{\"id\":99}\n";
  }
  const CampaignLog log = read_campaign_log(path.string());
  EXPECT_EQ(log.records.size(), 3u);
  EXPECT_EQ(log.good_bytes, original.size());
}

// ------------------------------------------------------------- aggregation

TEST(SweepAggregate, FoldsWinsMarginalsAndFrontier) {
  CampaignSpec spec = test_spec();
  spec.netsim.enabled = false;  // analytic-only: "sim" must be null
  const fs::path dir = scratch_dir("aggregate");
  CampaignOptions options;
  options.out_dir = dir.string();
  options.parallel.num_threads = 1;
  ASSERT_TRUE(run_campaign(spec, options).finished);

  const obs::JsonValue doc =
      aggregate_file((dir / "campaign.jsonl").string());
  EXPECT_EQ(doc.find("schema")->as_string(), kSweepFrontierSchema);
  EXPECT_TRUE(doc.find("complete")->as_bool());
  EXPECT_EQ(doc.find("scenarios")->as_uint(), 32u);
  EXPECT_EQ(doc.find("simulated")->as_uint(), 0u);

  // Every base scenario has exactly one winner: wins sum to 16.
  const obs::JsonValue* mappers = doc.find("mappers");
  ASSERT_NE(mappers, nullptr);
  std::uint64_t wins = 0;
  for (const auto& [name, row] : mappers->members()) {
    EXPECT_EQ(row.find("scenarios")->as_uint(), 16u) << name;
    wins += row.find("wins")->as_uint();
  }
  EXPECT_EQ(wins, 16u);

  // Frontier: one cell per (mesh_side x injection) = 4 cells, the best
  // value never above the mean.
  const obs::JsonValue* frontier = doc.find("frontier");
  ASSERT_NE(frontier, nullptr);
  const obs::JsonValue* max_apl = frontier->find("max_apl");
  ASSERT_NE(max_apl, nullptr);
  EXPECT_EQ(max_apl->size(), 4u);
  for (const obs::JsonValue& cell : max_apl->items()) {
    EXPECT_LE(cell.find("best")->as_double(),
              cell.find("mean")->as_double());
    EXPECT_EQ(cell.find("scenarios")->as_uint(), 8u);
  }
  // Analytic-only log: the power frontier is empty.
  EXPECT_EQ(frontier->find("power_mw")->size(), 0u);

  // Axis marginals cover both mesh sides with 16 scenarios each.
  const obs::JsonValue* mesh_axis = doc.find("axes")->find("mesh_side");
  ASSERT_NE(mesh_axis, nullptr);
  ASSERT_EQ(mesh_axis->size(), 2u);
  for (const obs::JsonValue& row : mesh_axis->items()) {
    EXPECT_EQ(row.find("scenarios")->as_uint(), 16u);
  }
}

TEST(SweepAggregate, PartialLogAggregatesAndReportsIncomplete) {
  const CampaignSpec spec = test_spec();
  const fs::path dir = scratch_dir("partial");
  CampaignOptions options;
  options.out_dir = dir.string();
  options.parallel.num_threads = 1;
  options.max_scenarios = 6;
  ASSERT_FALSE(run_campaign(spec, options).finished);

  const obs::JsonValue doc =
      aggregate_file((dir / "campaign.jsonl").string());
  EXPECT_FALSE(doc.find("complete")->as_bool());
  EXPECT_EQ(doc.find("scenarios")->as_uint(), 6u);
}

}  // namespace
}  // namespace nocmap::sweep
