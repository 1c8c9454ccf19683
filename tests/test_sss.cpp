#include "core/sss_mapper.h"

#include <gtest/gtest.h>

#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/random_mapper.h"
#include "obs/metrics.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem make_problem(const std::string& config, std::uint64_t seed) {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config(config), seed));
}

std::uint64_t counter(const char* name) {
  for (const obs::MetricRow& row : obs::snapshot()) {
    if (row.name == name) return row.count;
  }
  return 0;
}

// Stage 3 at one worker scores every window of its schedule exactly once
// and discards none; every width commits the same windows.
TEST(Sss, OneWorkerScoresEveryWindowOnce) {
  const ObmProblem p = make_problem("C1", 1);
  // 64 tiles, 4-tile windows, steps 1..16: 64 - 3·step starts per step.
  std::uint64_t schedule = 0;
  for (std::uint64_t step = 1; step <= 16; ++step) schedule += 64 - 3 * step;
  ASSERT_EQ(schedule, 616u);

  std::uint64_t one_worker_commits = 0;
  for (const std::size_t workers : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(workers);
    const std::uint64_t evaluated = counter("sss.windows_evaluated");
    const std::uint64_t stale = counter("sss.windows_discarded_stale");
    const std::uint64_t committed = counter("sss.windows_committed");
    (void)SortSelectSwapMapper(SssOptions{.parallel = {workers}}).map(p);
    if (!obs::compiled_in()) continue;
    const std::uint64_t commits =
        counter("sss.windows_committed") - committed;
    EXPECT_GT(commits, 0u);
    if (workers == 1) {
      EXPECT_EQ(counter("sss.windows_evaluated") - evaluated, schedule);
      EXPECT_EQ(counter("sss.windows_discarded_stale") - stale, 0u);
      one_worker_commits = commits;
    } else {
      EXPECT_EQ(commits, one_worker_commits);
    }
  }
}

TEST(Sss, ProducesValidPermutation) {
  const ObmProblem p = make_problem("C1", 1);
  SortSelectSwapMapper sss;
  EXPECT_TRUE(sss.map(p).is_valid_permutation(p.num_threads()));
}

TEST(Sss, Deterministic) {
  const ObmProblem p = make_problem("C2", 2);
  SortSelectSwapMapper a, b;
  EXPECT_EQ(a.map(p).thread_to_tile, b.map(p).thread_to_tile);
}

TEST(Sss, SortedTilesAscendingByTc) {
  const Mesh mesh = Mesh::square(8);
  const TileLatencyModel model(mesh, LatencyParams{});
  const auto sorted = SortSelectSwapMapper::sorted_tiles(model);
  ASSERT_EQ(sorted.size(), 64u);
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    EXPECT_LE(model.tc(sorted[i]), model.tc(sorted[i + 1]));
  }
}

// The headline property (paper Fig. 9 / Table 4): on every configuration,
// SSS has lower max-APL and far lower dev-APL than Global.
TEST(Sss, BeatsGlobalOnBalanceForAllConfigs) {
  for (const auto& spec : parsec_table3_configs()) {
    const Mesh mesh = Mesh::square(8);
    const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                       synthesize_workload(spec, 33));
    GlobalMapper global;
    SortSelectSwapMapper sss;
    const LatencyReport g = evaluate(p, global.map(p));
    const LatencyReport s = evaluate(p, sss.map(p));
    EXPECT_LT(s.max_apl, g.max_apl) << spec.name;
    EXPECT_LT(s.dev_apl, g.dev_apl * 0.5) << spec.name;
  }
}

// Performance-awareness (paper Fig. 10): SSS sacrifices only a small g-APL
// overhead relative to the exact Global optimum.
TEST(Sss, SmallGaplOverhead) {
  for (const auto& spec : parsec_table3_configs()) {
    const Mesh mesh = Mesh::square(8);
    const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                       synthesize_workload(spec, 44));
    GlobalMapper global;
    SortSelectSwapMapper sss;
    const double g = evaluate(p, global.map(p)).g_apl;
    const double s = evaluate(p, sss.map(p)).g_apl;
    EXPECT_LT(s, g * 1.10) << spec.name;  // paper reports < 3.82%
  }
}

TEST(Sss, BeatsRandomAverageOnMaxApl) {
  const ObmProblem p = make_problem("C1", 3);
  SortSelectSwapMapper sss;
  const double s = evaluate(p, sss.map(p)).max_apl;
  RandomMapper random(5);
  double avg = 0.0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    avg += evaluate(p, random.map(p)).max_apl;
  }
  EXPECT_LT(s, avg / trials);
}

// Ablation ordering: each stage may only improve (or preserve) max-APL,
// since window swaps and the final SAM are greedy descent steps.
TEST(Sss, StagesMonotonicallyImprove) {
  for (const char* cfg : {"C1", "C4", "C7"}) {
    const ObmProblem p = make_problem(cfg, 6);
    SortSelectSwapMapper select_only(
        SssOptions{.window_swaps = false, .final_sam = false});
    SortSelectSwapMapper no_final(
        SssOptions{.window_swaps = true, .final_sam = false});
    SortSelectSwapMapper full;

    const double obj_select = evaluate(p, select_only.map(p)).max_apl;
    const double obj_swap = evaluate(p, no_final.map(p)).max_apl;
    const double obj_full = evaluate(p, full.map(p)).max_apl;
    EXPECT_LE(obj_swap, obj_select + 1e-9) << cfg;
    EXPECT_LE(obj_full, obj_swap + 1e-9) << cfg;
  }
}

TEST(Sss, WindowSizeTwoStillValid) {
  const ObmProblem p = make_problem("C3", 7);
  SortSelectSwapMapper sss(SssOptions{.window_size = 2});
  const Mapping m = sss.map(p);
  EXPECT_TRUE(m.is_valid_permutation(p.num_threads()));
}

TEST(Sss, InvalidWindowSizeRejected) {
  const ObmProblem p = make_problem("C1", 8);
  // Too small to permute, and too large to enumerate (9! candidates).
  for (const std::size_t w : {1u, 9u}) {
    SortSelectSwapMapper sss(SssOptions{.window_size = w});
    EXPECT_THROW(sss.map(p), Error) << w;
  }
}

TEST(Sss, MaxStepOverride) {
  const ObmProblem p = make_problem("C1", 9);
  SortSelectSwapMapper limited(SssOptions{.max_step = 1});
  const Mapping m = limited.map(p);
  EXPECT_TRUE(m.is_valid_permutation(p.num_threads()));
}

// Unequal application sizes (e.g. 8/16/40 threads) must still work: the
// selection step's sections are computed per remaining list.
TEST(Sss, UnequalApplicationSizes) {
  const Mesh mesh = Mesh::square(8);
  Application small;
  small.name = "small";
  small.threads.assign(8, ThreadProfile{4.0, 0.4});
  Application medium;
  medium.name = "medium";
  medium.threads.assign(16, ThreadProfile{2.0, 0.2});
  Application large;
  large.name = "large";
  large.threads.assign(40, ThreadProfile{1.0, 0.1});
  const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                     Workload({small, medium, large}));
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  EXPECT_TRUE(m.is_valid_permutation(64));
}

// Padded workloads (fewer threads than tiles) per paper footnote 1.
TEST(Sss, PaddedWorkload) {
  const Mesh mesh = Mesh::square(8);
  Application a;
  a.name = "a";
  a.threads.assign(20, ThreadProfile{3.0, 0.3});
  Application b;
  b.name = "b";
  b.threads.assign(20, ThreadProfile{1.0, 0.1});
  const Workload wl = Workload({a, b}).padded_to(64);
  const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}), wl);
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  EXPECT_TRUE(m.is_valid_permutation(64));
  const LatencyReport r = evaluate(p, m);
  EXPECT_GT(r.max_apl, 0.0);
}

// The paper's Figure-8 observation: under SSS, the lightest application no
// longer monopolizes the worst (corner) tiles.
TEST(Sss, LightestAppNotConfinedToCorners) {
  const ObmProblem p = make_problem("C1", 10);
  SortSelectSwapMapper sss;
  const Mapping m = sss.map(p);
  const Mesh& mesh = p.mesh();
  const Workload& wl = p.workload();
  // Count corner tiles held by the lightest application (app 0).
  int corners_app0 = 0;
  const std::vector<TileId> corners{mesh.tile_at(0, 0), mesh.tile_at(0, 7),
                                    mesh.tile_at(7, 0), mesh.tile_at(7, 7)};
  for (std::size_t j = wl.first_thread(0); j < wl.last_thread(0); ++j) {
    for (TileId c : corners) {
      if (m.tile_of(j) == c) ++corners_app0;
    }
  }
  EXPECT_LT(corners_app0, 4);  // Global gives all four corners to app 0
}

}  // namespace
}  // namespace nocmap
