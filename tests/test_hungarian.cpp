#include "assign/hungarian.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "obs/metrics.h"
#include "util/rng.h"

namespace nocmap {
namespace {

// A cold solve of the whole matrix in a fresh workspace.
Assignment solve(const CostMatrix& m) {
  AssignmentWorkspace ws;
  return ws.solve(CostView::of(m));
}

bool is_permutation_of_range(const std::vector<std::size_t>& p) {
  std::vector<char> seen(p.size(), 0);
  for (std::size_t c : p) {
    if (c >= p.size() || seen[c]) return false;
    seen[c] = 1;
  }
  return true;
}

TEST(CostMatrix, StorageAndAccess) {
  CostMatrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = -4.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -4.0);
}

TEST(CostMatrix, EmptyRejected) { EXPECT_THROW(CostMatrix(0, 3), Error); }

TEST(Hungarian, TrivialOneByOne) {
  CostMatrix m(1, 1);
  m.at(0, 0) = 7.0;
  const Assignment a = solve(m);
  EXPECT_EQ(a.row_to_col, std::vector<std::size_t>{0});
  EXPECT_DOUBLE_EQ(a.total_cost, 7.0);
}

TEST(Hungarian, KnownTwoByTwo) {
  // Choosing the diagonal costs 1+1=2; anti-diagonal costs 100+100.
  CostMatrix m(2, 2);
  m.at(0, 0) = 1.0;
  m.at(0, 1) = 100.0;
  m.at(1, 0) = 100.0;
  m.at(1, 1) = 1.0;
  const Assignment a = solve(m);
  EXPECT_EQ(a.row_to_col[0], 0u);
  EXPECT_EQ(a.row_to_col[1], 1u);
  EXPECT_DOUBLE_EQ(a.total_cost, 2.0);
}

TEST(Hungarian, ClassicTextbookInstance) {
  // Well-known 3x3 instance with optimum 6 (1-2-3 anti-diagonal variants).
  CostMatrix m(3, 3);
  const double vals[3][3] = {{4, 1, 3}, {2, 0, 5}, {3, 2, 2}};
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) m.at(r, c) = vals[r][c];
  }
  const Assignment a = solve(m);
  EXPECT_DOUBLE_EQ(a.total_cost, 5.0);  // 1 + 2 + 2
  EXPECT_TRUE(is_permutation_of_range(a.row_to_col));
}

TEST(Hungarian, HandlesNegativeCosts) {
  CostMatrix m(2, 2);
  m.at(0, 0) = -5.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 1.0;
  m.at(1, 1) = -5.0;
  const Assignment a = solve(m);
  EXPECT_DOUBLE_EQ(a.total_cost, -10.0);
}

TEST(Hungarian, TiesStillProduceValidPermutation) {
  CostMatrix m(4, 4, 1.0);  // all equal: any permutation optimal
  const Assignment a = solve(m);
  EXPECT_TRUE(is_permutation_of_range(a.row_to_col));
  EXPECT_DOUBLE_EQ(a.total_cost, 4.0);
}

TEST(Hungarian, RowWithNoFiniteCostThrows) {
  // No augmenting path can reach a row whose costs are all +inf: the
  // kernel must say so instead of searching forever.
  CostMatrix m(3, 3, 1.0);
  for (std::size_t c = 0; c < 3; ++c) {
    m.at(1, c) = std::numeric_limits<double>::infinity();
  }
  EXPECT_THROW(solve(m), Error);
}

std::uint64_t warm_hits() {
  for (const obs::MetricRow& row : obs::snapshot()) {
    if (row.name == "assign.warm_hits") return row.count;
  }
  return 0;
}

TEST(Hungarian, ThrowLeavesNoWarmState) {
  // A solve that throws part-way must not hand its half-updated potentials
  // to the next warm solve, which then runs cold.
  Rng rng(3);
  CostMatrix good(6, 6);
  CostMatrix bad(6, 6);
  for (std::size_t r = 0; r < 6; ++r) {
    for (std::size_t c = 0; c < 6; ++c) {
      good.at(r, c) = rng.uniform(0.0, 9.0);
      bad.at(r, c) = r == 5 ? std::numeric_limits<double>::infinity()
                            : rng.uniform(0.0, 900.0);
    }
  }
  AssignmentWorkspace ws;
  ws.solve(CostView::of(good));
  EXPECT_THROW(ws.solve_warm(CostView::of(bad)), Error);
  const std::uint64_t hits = warm_hits();
  const Assignment after = ws.solve_warm(CostView::of(good));
  if (obs::compiled_in()) {
    EXPECT_EQ(warm_hits(), hits);
  }
  const Assignment cold = solve(good);
  EXPECT_EQ(after.row_to_col, cold.row_to_col);
  EXPECT_EQ(after.total_cost, cold.total_cost);
}

TEST(BruteForce, MatchesManualEnumeration) {
  CostMatrix m(2, 2);
  m.at(0, 0) = 3.0;
  m.at(0, 1) = 1.0;
  m.at(1, 0) = 2.0;
  m.at(1, 1) = 9.0;
  const Assignment a = solve_assignment_brute_force(m);
  EXPECT_DOUBLE_EQ(a.total_cost, 3.0);  // 1 + 2
  EXPECT_EQ(a.row_to_col[0], 1u);
  EXPECT_EQ(a.row_to_col[1], 0u);
}

TEST(BruteForce, SizeLimitEnforced) {
  CostMatrix m(11, 11);
  EXPECT_THROW(solve_assignment_brute_force(m), Error);
}

TEST(AssignmentCost, ComputesAndValidates) {
  CostMatrix m(2, 2);
  m.at(0, 1) = 4.0;
  m.at(1, 0) = 6.0;
  EXPECT_DOUBLE_EQ(assignment_cost(m, {1, 0}), 10.0);
  EXPECT_THROW(assignment_cost(m, {0}), Error);
#ifndef NDEBUG
  // Per-element column validation is NOCMAP_ASSERT-only (hot-loop helper):
  // it throws in debug builds and is compiled out under NDEBUG, where an
  // out-of-range column would be undefined behaviour — so only exercise it
  // when the check exists.
  EXPECT_THROW(assignment_cost(m, {0, 5}), Error);
#endif
}

// Property: Hungarian == brute force on random instances.
class HungarianRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(HungarianRandomProperty, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  const std::size_t n = 2 + GetParam() % 6;  // sizes 2..7
  CostMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.at(r, c) = rng.uniform(-10.0, 10.0);
    }
  }
  const Assignment fast = solve(m);
  const Assignment slow = solve_assignment_brute_force(m);
  EXPECT_TRUE(is_permutation_of_range(fast.row_to_col));
  EXPECT_NEAR(fast.total_cost, slow.total_cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, HungarianRandomProperty,
                         ::testing::Range(0, 40));

// Property: the Hungarian solution is no worse than many random
// permutations on larger instances where brute force is infeasible.
TEST(Hungarian, BeatsRandomPermutationsOnLargeInstance) {
  Rng rng(123);
  const std::size_t n = 64;
  CostMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      m.at(r, c) = rng.uniform(0.0, 100.0);
    }
  }
  const Assignment opt = solve(m);
  for (int trial = 0; trial < 200; ++trial) {
    const auto perm = random_permutation(n, rng);
    EXPECT_LE(opt.total_cost, assignment_cost(m, perm) + 1e-9);
  }
}

// Dual-feasibility sanity: optimal cost is invariant under row shifts
// (adding a constant to a row shifts every assignment equally).
TEST(Hungarian, RowShiftInvariance) {
  Rng rng(321);
  const std::size_t n = 8;
  CostMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) m.at(r, c) = rng.uniform(0.0, 9.0);
  }
  const Assignment base = solve(m);
  CostMatrix shifted = m;
  for (std::size_t c = 0; c < n; ++c) shifted.at(3, c) += 42.0;
  const Assignment moved = solve(shifted);
  EXPECT_NEAR(moved.total_cost, base.total_cost + 42.0, 1e-9);
}

}  // namespace
}  // namespace nocmap
