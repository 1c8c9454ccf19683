// Exact numeric anchors from the paper's own worked examples. These tests
// pin the latency model and problem formulation to the published arithmetic:
// if any of them fails, the reproduction is modelling a different system
// than the paper.
#include <gtest/gtest.h>

#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/sss_mapper.h"

namespace nocmap {
namespace {

// Paper Section III.A, Figure 5: 4 applications x 4 threads on a 4x4 mesh,
// thread cache rates 0.1/0.2/0.3/0.4 per application, zero memory traffic,
// td_r = 3, td_w = 1, td_s = 1 (td_q = 0).
LatencyParams fig5_params() {
  return {.td_q = 0.0, .td_s = 1.0};
}

ObmProblem fig5_problem() {
  const Mesh mesh = Mesh::square(4);
  std::vector<Application> apps(4);
  for (std::size_t a = 0; a < 4; ++a) {
    apps[a].name = "app" + std::to_string(a + 1);
    apps[a].threads = {{0.1, 0.0}, {0.2, 0.0}, {0.3, 0.0}, {0.4, 0.0}};
  }
  return ObmProblem(TileLatencyModel(mesh, fig5_params()),
                    Workload(std::move(apps)));
}

// Tile classes on the 4x4 mesh under Fig-5 parameters.
constexpr double kCornerTc = 12.0 + 15.0 / 16.0;  // HC=3.0
constexpr double kEdgeTc = 10.0 + 15.0 / 16.0;    // HC=2.5
constexpr double kCenterTc = 8.0 + 15.0 / 16.0;   // HC=2.0

TEST(Fig5, TileClassLatencies) {
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, fig5_params());
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(0, 0)), kCornerTc);
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(0, 2)), kEdgeTc);
  EXPECT_DOUBLE_EQ(model.tc(mesh.tile_at(2, 1)), kCenterTc);
}

// Figure 5(a): the optimal mapping gives every application an APL of
// exactly 10.3375 cycles.
TEST(Fig5, OptimalMappingApl) {
  const ObmProblem p = fig5_problem();
  GlobalMapper global;
  const LatencyReport r = evaluate(p, global.map(p));
  for (double apl : r.apl) {
    EXPECT_NEAR(apl, 10.3375, 1e-9);
  }
  EXPECT_NEAR(r.g_apl, 10.3375, 1e-9);
  EXPECT_NEAR(r.max_apl, 10.3375, 1e-9);
  EXPECT_NEAR(r.dev_apl, 0.0, 1e-9);
}

// Figure 5(b): a mapping can be perfectly "balanced" (dev-APL = 0,
// min-to-max = 1) while every application is equally *bad* at 11.5375
// cycles — the pathology that disqualifies those metrics as objectives.
TEST(Fig5, EquallyBadBalancedMapping) {
  const ObmProblem p = fig5_problem();
  const Mesh& mesh = p.mesh();

  // Give each application one corner, two edges, one center — but reversed:
  // the hottest thread (0.4) gets the corner, the lightest the center.
  const std::vector<TileId> corners{mesh.tile_at(0, 0), mesh.tile_at(0, 3),
                                    mesh.tile_at(3, 0), mesh.tile_at(3, 3)};
  const std::vector<TileId> centers{mesh.tile_at(1, 1), mesh.tile_at(1, 2),
                                    mesh.tile_at(2, 1), mesh.tile_at(2, 2)};
  const std::vector<TileId> edges{mesh.tile_at(0, 1), mesh.tile_at(0, 2),
                                  mesh.tile_at(1, 0), mesh.tile_at(1, 3),
                                  mesh.tile_at(2, 0), mesh.tile_at(2, 3),
                                  mesh.tile_at(3, 1), mesh.tile_at(3, 2)};
  Mapping m;
  m.thread_to_tile.resize(16);
  for (std::size_t a = 0; a < 4; ++a) {
    m.thread_to_tile[a * 4 + 0] = centers[a];      // 0.1 -> center (waste)
    m.thread_to_tile[a * 4 + 1] = edges[a * 2];    // 0.2 -> edge
    m.thread_to_tile[a * 4 + 2] = edges[a * 2 + 1];  // 0.3 -> edge
    m.thread_to_tile[a * 4 + 3] = corners[a];      // 0.4 -> corner (waste)
  }
  ASSERT_TRUE(m.is_valid_permutation(16));

  const LatencyReport r = evaluate(p, m);
  for (double apl : r.apl) {
    EXPECT_NEAR(apl, 11.5375, 1e-9);
  }
  EXPECT_NEAR(r.dev_apl, 0.0, 1e-9);
  EXPECT_NEAR(r.min_to_max, 1.0, 1e-9);
  // Perfectly balanced by both rejected metrics, yet 1.2 cycles worse than
  // the optimum for every single application.
  EXPECT_GT(r.g_apl, 10.3375 + 1.0);
}

// SSS must land within the narrow band [optimal, optimal + small] on the
// Fig-5 instance: max-APL is bounded below by the optimal g-APL.
TEST(Fig5, SssNearOptimal) {
  const ObmProblem p = fig5_problem();
  SortSelectSwapMapper sss;
  const LatencyReport r = evaluate(p, sss.map(p));
  EXPECT_GE(r.max_apl, 10.3375 - 1e-9);
  EXPECT_LE(r.max_apl, 10.3375 + 0.45);
  EXPECT_LT(r.dev_apl, 0.2);
}

// Section II.C worked anchors on the 8x8 mesh.
TEST(Section2C, HopCountAnchors) {
  const Mesh mesh = Mesh::square(8);
  EXPECT_DOUBLE_EQ(mesh.avg_weighted_hops_to_all(mesh.from_paper_number(1)),
                   7.0);
  EXPECT_DOUBLE_EQ(mesh.avg_weighted_hops_to_all(mesh.from_paper_number(28)),
                   4.0);
}

// Section III.C reduction sanity: with two equal-size applications of
// uniform unit cache rates and zero memory traffic, APLs reduce to plain
// averages of TC over each half — the set-partition structure used in the
// NP-completeness proof.
TEST(Section3C, ReductionArithmetic) {
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, fig5_params());
  std::vector<Application> apps(2);
  for (auto& a : apps) {
    a.threads.assign(8, ThreadProfile{1.0, 0.0});
  }
  const ObmProblem p(model, Workload(std::move(apps)));
  const Mapping m = p.identity_mapping();
  const LatencyReport r = evaluate(p, m);

  double half1 = 0.0, half2 = 0.0;
  for (TileId t = 0; t < 8; ++t) half1 += model.tc(t);
  for (TileId t = 8; t < 16; ++t) half2 += model.tc(t);
  EXPECT_NEAR(r.apl[0], half1 / 8.0, 1e-12);
  EXPECT_NEAR(r.apl[1], half2 / 8.0, 1e-12);

  // gamma = average TC over the whole chip bounds max(d1, d2) from below.
  const double gamma = (half1 + half2) / 16.0;
  EXPECT_GE(r.max_apl, gamma - 1e-12);
}

}  // namespace
}  // namespace nocmap
