#include "core/bounds.h"

#include <gtest/gtest.h>

#include "core/global_mapper.h"
#include "core/metrics.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

LatencyParams fig5_params() {
  return {.td_q = 0.0, .td_s = 1.0};
}

ObmProblem c1_problem() {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 5));
}

TEST(Bounds, OptimalGaplMatchesGlobalMapper) {
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  AssignmentWorkspace ws;
  GlobalMapper global;
  EXPECT_NEAR(optimal_gapl(p, cache, ws), evaluate(p, global.map(p)).g_apl,
              1e-9);
}

TEST(Bounds, RelaxedMinAplIsAchievedOnFig5Instance) {
  // On the Figure-5 instance, the chip is symmetric and every application
  // identical, so the optimum achieves each application's relaxed minimum?
  // No — tiles are contested; but the relaxed bound must not exceed the
  // achieved optimal APL of 10.3375 and must be positive.
  const Mesh mesh = Mesh::square(4);
  std::vector<Application> apps(4);
  for (auto& a : apps) {
    a.threads = {{0.1, 0.0}, {0.2, 0.0}, {0.3, 0.0}, {0.4, 0.0}};
  }
  const ObmProblem p(TileLatencyModel(mesh, fig5_params()),
                     Workload(std::move(apps)));
  for (std::size_t a = 0; a < 4; ++a) {
    const double relaxed = relaxed_min_apl(p, a);
    EXPECT_GT(relaxed, 0.0);
    EXPECT_LE(relaxed, 10.3375 + 1e-9);
  }
}

TEST(Bounds, RelaxedMinAplZeroForIdleApp) {
  const Mesh mesh = Mesh::square(4);
  Application live;
  live.threads.assign(8, ThreadProfile{1.0, 0.1});
  const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                     Workload({live}).padded_to(16));
  EXPECT_DOUBLE_EQ(relaxed_min_apl(p, 1), 0.0);
}

TEST(Bounds, LowerBoundBelowEveryAchievableMaxApl) {
  const ObmProblem p = c1_problem();
  const double lb = max_apl_lower_bound(p);
  SortSelectSwapMapper sss;
  GlobalMapper global;
  MonteCarloMapper mc(2000, 3);
  EXPECT_LE(lb, evaluate(p, sss.map(p)).max_apl + 1e-9);
  EXPECT_LE(lb, evaluate(p, global.map(p)).max_apl + 1e-9);
  EXPECT_LE(lb, evaluate(p, mc.map(p)).max_apl + 1e-9);
}

TEST(Bounds, LowerBoundAtLeastOptimalGapl) {
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  AssignmentWorkspace ws;
  EXPECT_GE(max_apl_lower_bound(p), optimal_gapl(p, cache, ws) - 1e-9);
}

TEST(Bounds, SssIsNearTheLowerBoundOnAllConfigs) {
  // Empirical tightness: SSS lands within 10% of the combined bound on the
  // standard configurations — the optimality-gap story of ext_optimality_gap.
  for (const auto& spec : parsec_table3_configs()) {
    const Mesh mesh = Mesh::square(8);
    const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                       synthesize_workload(spec, 7));
    SortSelectSwapMapper sss;
    const double achieved = evaluate(p, sss.map(p)).max_apl;
    const double lb = max_apl_lower_bound(p);
    EXPECT_LE(achieved, lb * 1.10) << spec.name;
  }
}

}  // namespace
}  // namespace nocmap
