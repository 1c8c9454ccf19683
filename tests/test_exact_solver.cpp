#include "core/exact_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/bounds.h"
#include "core/metrics.h"
#include "core/sss_mapper.h"
#include "util/rng.h"

namespace nocmap {
namespace {

LatencyParams fig5_params() {
  return {.td_q = 0.0, .td_s = 1.0};
}

/// Random small instance: 2x2..4x3 tiles, 2 applications.
ObmProblem random_small_problem(std::uint64_t seed, std::size_t n_threads) {
  NOCMAP_REQUIRE(n_threads % 2 == 0 && n_threads >= 4, "test helper misuse");
  Rng rng(seed);
  const auto side = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(n_threads))));
  // Use a rows x cols mesh with exactly n_threads tiles when possible.
  std::uint32_t rows = side;
  std::uint32_t cols = side;
  while (static_cast<std::size_t>(rows) * cols > n_threads && rows > 2) {
    --rows;
  }
  if (static_cast<std::size_t>(rows) * cols != n_threads) {
    rows = 2;
    cols = static_cast<std::uint32_t>(n_threads / 2);
  }
  const Mesh mesh(rows, cols, {0});
  std::vector<Application> apps(2);
  for (auto& a : apps) {
    a.threads.resize(n_threads / 2);
    for (auto& t : a.threads) {
      t = {rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0)};
    }
  }
  return ObmProblem(TileLatencyModel(mesh, fig5_params()),
                    Workload(std::move(apps)));
}

/// Ground truth by full enumeration (only for tiny n).
double brute_force_max_apl(const ObmProblem& p) {
  const std::size_t n = p.num_threads();
  std::vector<TileId> perm(n);
  std::iota(perm.begin(), perm.end(), TileId{0});
  double best = std::numeric_limits<double>::infinity();
  do {
    Mapping m;
    m.thread_to_tile = perm;
    best = std::min(best, evaluate(p, m).max_apl);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(ExactSolver, MatchesBruteForceOnTinyInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ObmProblem p = random_small_problem(seed, 6);
    const ExactResult exact = solve_obm_exact(p);
    EXPECT_TRUE(exact.proven_optimal);
    EXPECT_TRUE(exact.mapping.is_valid_permutation(6));
    EXPECT_NEAR(exact.max_apl, brute_force_max_apl(p), 1e-9) << seed;
    EXPECT_NEAR(evaluate(p, exact.mapping).max_apl, exact.max_apl, 1e-9);
  }
}

TEST(ExactSolver, RespectsLowerBound) {
  for (std::uint64_t seed = 10; seed <= 14; ++seed) {
    const ObmProblem p = random_small_problem(seed, 8);
    const ExactResult exact = solve_obm_exact(p);
    EXPECT_TRUE(exact.proven_optimal);
    EXPECT_GE(exact.max_apl, max_apl_lower_bound(p) - 1e-9);
  }
}

TEST(ExactSolver, NeverWorseThanSss) {
  for (std::uint64_t seed = 20; seed <= 25; ++seed) {
    const ObmProblem p = random_small_problem(seed, 10);
    const ExactResult exact = solve_obm_exact(p);
    SortSelectSwapMapper sss;
    const double sss_obj = evaluate(p, sss.map(p)).max_apl;
    EXPECT_LE(exact.max_apl, sss_obj + 1e-9) << seed;
  }
}

TEST(ExactSolver, Fig5InstanceOptimumIsPaperValue) {
  const Mesh mesh = Mesh::square(4);
  std::vector<Application> apps(4);
  for (auto& a : apps) {
    a.threads = {{0.1, 0.0}, {0.2, 0.0}, {0.3, 0.0}, {0.4, 0.0}};
  }
  const ObmProblem p(TileLatencyModel(mesh, fig5_params()),
                     Workload(std::move(apps)));
  // 16 threads is at the edge of exact tractability; bound the node budget
  // and accept the incumbent if the proof does not finish — the SSS warm
  // start is already optimal on this instance, so the value must be exact
  // either way.
  ExactSolverOptions opt;
  opt.max_nodes = 5'000'000;
  const ExactResult exact = solve_obm_exact(p, opt);
  EXPECT_NEAR(exact.max_apl, 10.3375, 1e-9);
  EXPECT_TRUE(exact.mapping.is_valid_permutation(16));
}

TEST(ExactSolver, SizeGuard) {
  const Mesh mesh = Mesh::square(8);
  Application a;
  a.threads.assign(64, ThreadProfile{1.0, 0.1});
  const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                     Workload({a}));
  EXPECT_THROW(solve_obm_exact(p), Error);
}

TEST(ExactSolver, NodeBudgetReportsIncompleteness) {
  const ObmProblem p = random_small_problem(33, 12);
  ExactSolverOptions opt;
  opt.max_nodes = 10;  // absurdly small
  const ExactResult exact = solve_obm_exact(p, opt);
  EXPECT_FALSE(exact.proven_optimal);
  // Incumbent (SSS warm start) must still be a valid mapping.
  EXPECT_TRUE(exact.mapping.is_valid_permutation(12));
  EXPECT_NEAR(evaluate(p, exact.mapping).max_apl, exact.max_apl, 1e-9);
}

TEST(ExactSolver, ReportsNodeCount) {
  const ObmProblem p = random_small_problem(44, 8);
  const ExactResult exact = solve_obm_exact(p);
  EXPECT_GT(exact.nodes_explored, 0u);
}

}  // namespace
}  // namespace nocmap
