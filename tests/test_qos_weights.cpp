// Weighted-OBM (QoS) extension tests: min max_i w_i·APL_i generalizes the
// paper's objective; weights express differentiated service (Section I's
// paying-users motivation).
#include <gtest/gtest.h>

#include "core/annealing_mapper.h"
#include "core/evaluator.h"
#include "core/exact_solver.h"
#include "core/bounds.h"
#include "core/metrics.h"
#include "core/monte_carlo_mapper.h"
#include "core/sss_mapper.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

Workload c1_workload(std::uint64_t seed = 31) {
  return synthesize_workload(parsec_config("C1"), seed);
}

TileLatencyModel chip8() {
  return TileLatencyModel(Mesh::square(8), LatencyParams{});
}

TEST(QosWeights, DefaultsToUnweighted) {
  const ObmProblem p(chip8(), c1_workload());
  for (std::size_t a = 0; a < p.num_applications(); ++a) {
    EXPECT_DOUBLE_EQ(p.app_weight(a), 1.0);
  }
}

TEST(QosWeights, ValidationRejectsBadWeights) {
  EXPECT_THROW(ObmProblem(chip8(), c1_workload(), {1.0, 1.0}), Error);
  EXPECT_THROW(ObmProblem(chip8(), c1_workload(), {1.0, 1.0, 1.0, 0.0}),
               Error);
  EXPECT_THROW(ObmProblem(chip8(), c1_workload(), {1.0, 1.0, 1.0, -2.0}),
               Error);
}

TEST(QosWeights, ObjectiveEqualsMaxAplWhenUnweighted) {
  const ObmProblem p(chip8(), c1_workload());
  SortSelectSwapMapper sss;
  const LatencyReport r = evaluate(p, sss.map(p));
  EXPECT_DOUBLE_EQ(r.objective, r.max_apl);
}

TEST(QosWeights, ObjectiveIsWeightedMax) {
  const std::vector<double> w{3.0, 1.0, 1.0, 1.0};
  const ObmProblem p(chip8(), c1_workload(), w);
  EXPECT_EQ(p.app_weight(0), 3.0);
  const Mapping m = p.identity_mapping();
  const LatencyReport r = evaluate(p, m);
  double expected = 0.0;
  for (std::size_t a = 0; a < 4; ++a) {
    expected = std::max(expected, w[a] * r.apl[a]);
  }
  EXPECT_NEAR(r.objective, expected, 1e-12);
}

TEST(QosWeights, EvaluatorObjectiveMatchesEvaluate) {
  const ObmProblem p(chip8(), c1_workload(), {2.0, 1.0, 1.5, 1.0});
  const ThreadCostCache cache(p.workload(), p.model());
  const MappingEvaluator eval(p, p.identity_mapping(), cache);
  const LatencyReport r = evaluate(p, p.identity_mapping());
  EXPECT_NEAR(eval.objective(), r.objective, 1e-9);
  EXPECT_NEAR(eval.max_apl(), r.max_apl, 1e-9);
}

// The core QoS property: giving one application a higher weight buys it a
// lower APL than it gets in the unweighted solution.
TEST(QosWeights, HigherWeightBuysLowerApl) {
  const Workload wl = c1_workload();
  const ObmProblem plain(chip8(), wl);
  const ObmProblem priority(chip8(), wl, {3.0, 1.0, 1.0, 1.0});

  SortSelectSwapMapper sss;
  const LatencyReport r_plain = evaluate(plain, sss.map(plain));
  // Evaluate the weighted solution with the *plain* problem to compare raw
  // APLs (the workload/mesh are identical).
  const Mapping m_priority = sss.map(priority);
  const LatencyReport r_priority = evaluate(plain, m_priority);

  EXPECT_LT(r_priority.apl[0], r_plain.apl[0]);
}

TEST(QosWeights, AnnealerOptimizesWeightedObjective) {
  const Workload wl = c1_workload();
  const ObmProblem priority(chip8(), wl, {3.0, 1.0, 1.0, 1.0});
  AnnealingMapper sa(AnnealingParams{.iterations = 30000, .seed = 5});
  const LatencyReport r = evaluate(priority, sa.map(priority));
  // At a good weighted optimum the weighted APLs roughly equalize: app 0's
  // raw APL must be well below the others'.
  EXPECT_LT(r.apl[0], r.apl[1]);
  EXPECT_LT(r.apl[0], r.apl[3]);
}

TEST(QosWeights, MonteCarloUsesWeightedObjective) {
  const Workload wl = c1_workload();
  const ObmProblem priority(chip8(), wl, {3.0, 1.0, 1.0, 1.0});
  MonteCarloMapper mc(3000, 7);
  const LatencyReport r = evaluate(priority, mc.map(priority));
  EXPECT_LT(r.apl[0], r.apl[3]);
}

TEST(QosWeights, ExactSolverRespectsWeights) {
  // Small instance: 2 apps, the weighted optimum must shift latency toward
  // the low-weight app.
  const Mesh mesh(2, 4, {0});
  const TileLatencyModel model(mesh, LatencyParams{});
  std::vector<Application> apps(2);
  for (auto& a : apps) {
    a.threads.assign(4, ThreadProfile{2.0, 0.2});
  }
  const Workload wl(std::move(apps));
  const ObmProblem plain(model, wl);
  const ObmProblem weighted(model, wl, {2.0, 1.0});

  const ExactResult e_plain = solve_obm_exact(plain);
  const ExactResult e_weighted = solve_obm_exact(weighted);
  ASSERT_TRUE(e_plain.proven_optimal);
  ASSERT_TRUE(e_weighted.proven_optimal);

  const LatencyReport r_plain = evaluate(plain, e_plain.mapping);
  const LatencyReport r_weighted = evaluate(plain, e_weighted.mapping);
  EXPECT_LE(r_weighted.apl[0], r_plain.apl[0] + 1e-9);
}

TEST(QosWeights, LowerBoundStillValidUnderWeights) {
  const ObmProblem p(chip8(), c1_workload(), {2.0, 1.0, 1.0, 1.5});
  SortSelectSwapMapper sss;
  const double achieved = evaluate(p, sss.map(p)).objective;
  EXPECT_LE(max_apl_lower_bound(p), achieved + 1e-9);
}

}  // namespace
}  // namespace nocmap
