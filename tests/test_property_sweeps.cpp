// Cross-cutting property sweeps: the core invariants must hold for every
// mesh size, application count, topology and MC placement — not just the
// paper's 8x8 / 4-app configuration.
#include <gtest/gtest.h>

#include <tuple>

#include "core/bounds.h"
#include "core/evaluator.h"
#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

struct SweepCase {
  std::uint32_t side;
  std::size_t apps;
  bool torus;
  McPlacement placement;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string s = std::to_string(c.side) + "x" + std::to_string(c.side) +
                  "_" + std::to_string(c.apps) + "apps";
  s += c.torus ? "_torus" : "_mesh";
  // Short suffixes ("_edges", not mc_placement_name()'s "edge_middles")
  // keep the existing gtest case names stable.
  switch (c.placement) {
    case McPlacement::kCorners: s += "_corners"; break;
    case McPlacement::kEdgeMiddles: s += "_edges"; break;
    case McPlacement::kDiamond: s += "_diamond"; break;
    case McPlacement::kRandom: s += "_random"; break;
  }
  return s;
}

class TopologySweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  ObmProblem make_problem() const {
    const SweepCase& c = GetParam();
    Mesh mesh = c.torus
                    ? Mesh::square_torus(c.side)
                    : Mesh::square_with_placement(c.side, c.placement);
    SynthesisOptions opt;
    opt.num_applications = c.apps;
    opt.threads_per_app = mesh.num_tiles() / c.apps;
    std::vector<double> mults;
    for (std::size_t a = 0; a < c.apps; ++a) {
      mults.push_back(0.25 + 1.5 * static_cast<double>(a) /
                                 static_cast<double>(c.apps - 1));
    }
    opt.app_load_multipliers = mults;
    Workload wl = synthesize_workload(parsec_config("C1"), 71, opt);
    wl = wl.padded_to(mesh.num_tiles());
    return ObmProblem(TileLatencyModel(std::move(mesh), LatencyParams{}),
                      std::move(wl));
  }
};

TEST_P(TopologySweep, AllMappersValid) {
  const ObmProblem p = make_problem();
  GlobalMapper global;
  SortSelectSwapMapper sss;
  MonteCarloMapper mc(300, 1);
  EXPECT_TRUE(global.map(p).is_valid_permutation(p.num_threads()));
  EXPECT_TRUE(sss.map(p).is_valid_permutation(p.num_threads()));
  EXPECT_TRUE(mc.map(p).is_valid_permutation(p.num_threads()));
}

TEST_P(TopologySweep, GlobalIsGaplOptimal) {
  const ObmProblem p = make_problem();
  GlobalMapper global;
  SortSelectSwapMapper sss;
  const double g = evaluate(p, global.map(p)).g_apl;
  EXPECT_LE(g, evaluate(p, sss.map(p)).g_apl + 1e-9);
  const ThreadCostCache cache(p.workload(), p.model());
  AssignmentWorkspace ws;
  EXPECT_NEAR(g, optimal_gapl(p, cache, ws), 1e-9);
}

TEST_P(TopologySweep, SssRespectsLowerBound) {
  const ObmProblem p = make_problem();
  SortSelectSwapMapper sss;
  const double achieved = evaluate(p, sss.map(p)).max_apl;
  EXPECT_GE(achieved, max_apl_lower_bound(p) - 1e-9);
}

TEST_P(TopologySweep, SssNeverWorseThanSelectOnly) {
  const ObmProblem p = make_problem();
  SortSelectSwapMapper full;
  SortSelectSwapMapper select_only(
      SssOptions{.window_swaps = false, .final_sam = false});
  EXPECT_LE(evaluate(p, full.map(p)).max_apl,
            evaluate(p, select_only.map(p)).max_apl + 1e-9);
}

TEST_P(TopologySweep, EvaluatorConsistentAfterSwapStorm) {
  const ObmProblem p = make_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  Rng rng(17);
  const auto n = static_cast<std::uint32_t>(p.num_threads());
  for (int i = 0; i < 200; ++i) {
    eval.swap_threads(rng.uniform_u32(n), rng.uniform_u32(n));
  }
  EXPECT_NEAR(eval.max_apl(), evaluate(p, eval.mapping()).max_apl, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TopologySweep,
    ::testing::Values(
        SweepCase{4, 2, false, McPlacement::kCorners},
        SweepCase{4, 4, false, McPlacement::kCorners},
        SweepCase{6, 3, false, McPlacement::kEdgeMiddles},
        SweepCase{6, 4, true, McPlacement::kCorners},
        SweepCase{8, 4, false, McPlacement::kCorners},
        SweepCase{8, 8, false, McPlacement::kDiamond},
        SweepCase{8, 4, true, McPlacement::kCorners},
        SweepCase{10, 5, false, McPlacement::kEdgeMiddles},
        SweepCase{12, 4, false, McPlacement::kCorners},
        SweepCase{12, 6, false, McPlacement::kDiamond}),
    case_name);

// Balance property across the board: on every *mesh* case SSS must beat
// Global on dev-APL (tori are excluded: TC is uniform there, so Global is
// not necessarily imbalanced).
class MeshBalanceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MeshBalanceSweep, SssBalancesBetterThanGlobal) {
  const SweepCase& c = GetParam();
  Mesh mesh = Mesh::square_with_placement(c.side, c.placement);
  SynthesisOptions opt;
  opt.num_applications = c.apps;
  opt.threads_per_app = mesh.num_tiles() / c.apps;
  const ObmProblem p(
      TileLatencyModel(std::move(mesh), LatencyParams{}),
      synthesize_workload(parsec_config("C1"), 73, opt)
          .padded_to(static_cast<std::size_t>(c.side) * c.side));
  GlobalMapper global;
  SortSelectSwapMapper sss;
  const LatencyReport rg = evaluate(p, global.map(p));
  const LatencyReport rs = evaluate(p, sss.map(p));
  EXPECT_LT(rs.dev_apl, rg.dev_apl);
  EXPECT_LE(rs.max_apl, rg.max_apl + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MeshBalanceSweep,
    ::testing::Values(SweepCase{6, 2, false, McPlacement::kCorners},
                      SweepCase{8, 4, false, McPlacement::kCorners},
                      SweepCase{8, 4, false, McPlacement::kEdgeMiddles},
                      SweepCase{10, 4, false, McPlacement::kCorners},
                      SweepCase{12, 4, false, McPlacement::kCorners}),
    case_name);

}  // namespace
}  // namespace nocmap
