// Property tests for the allocation-free assignment kernel: CostView
// indexing, workspace solves vs. the brute-force reference on adversarial
// cost families, warm-start == cold-start assignment identity, rectangular
// solves, the ThreadCostCache prefix-sum / lazy-view plumbing, and parity
// pins of solves the mappers and the online service run.
#include "assign/hungarian.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/problem.h"
#include "core/sam.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

CostMatrix random_matrix(std::size_t n, Rng& rng, double lo = 0.0,
                         double hi = 10.0) {
  CostMatrix m(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) m.at(r, c) = rng.uniform(lo, hi);
  }
  return m;
}

bool is_valid_partial_assignment(const std::vector<std::size_t>& p,
                                 std::size_t num_cols) {
  std::vector<char> seen(num_cols, 0);
  for (std::size_t c : p) {
    if (c >= num_cols || seen[c]) return false;
    seen[c] = 1;
  }
  return true;
}

TEST(CostView, DenseViewMatchesMatrix) {
  Rng rng(11);
  const CostMatrix m = random_matrix(5, rng);
  const CostView v = CostView::of(m);
  ASSERT_EQ(v.rows(), 5u);
  ASSERT_EQ(v.cols(), 5u);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_DOUBLE_EQ(v.at(r, c), m.at(r, c));
    }
  }
}

TEST(CostView, GatherReadsStridedColumns) {
  // A 3×8 table viewed as 2 rows × 3 gathered columns.
  std::vector<double> table(3 * 8);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<double>(i);
  }
  const std::vector<std::uint32_t> cols{7, 2, 5};
  const CostView v(table.data(), 2, cols.size(), 8, cols.data());
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      EXPECT_DOUBLE_EQ(v.at(r, c), table[r * 8 + cols[c]]);
    }
  }
}

TEST(CostView, WiderThanStrideRejected) {
  std::vector<double> table(8, 0.0);
  EXPECT_THROW(CostView(table.data(), 2, 4, 2), Error);
}

TEST(Workspace, MoreRowsThanColsRejected) {
  std::vector<double> table(6, 0.0);
  const CostView v(table.data(), 3, 2, 2);
  AssignmentWorkspace ws;
  EXPECT_THROW(ws.solve(v), Error);
}

// Adversarial cost families where tie-breaking and degeneracy bite: the
// workspace (cold and warm) must match the exhaustive optimum on all of
// them. Assignments may legitimately differ between solvers on ties, so the
// comparison is on total cost.
class KernelAdversarialProperty : public ::testing::TestWithParam<int> {};

TEST_P(KernelAdversarialProperty, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 101);
  const std::size_t n = 2 + GetParam() % 7;  // sizes 2..8

  std::vector<CostMatrix> family;
  // Heavily tied costs: entries from a three-value set.
  {
    CostMatrix m(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        m.at(r, c) = static_cast<double>(rng.uniform_u32(3));
      }
    }
    family.push_back(m);
  }
  // Duplicate rows: two identical threads competing for the same tiles.
  {
    CostMatrix m = random_matrix(n, rng);
    const std::size_t src = rng.uniform_u32(static_cast<std::uint32_t>(n));
    const std::size_t dst = rng.uniform_u32(static_cast<std::uint32_t>(n));
    for (std::size_t c = 0; c < n; ++c) m.at(dst, c) = m.at(src, c);
    family.push_back(m);
  }
  // Zero traffic: the all-zero matrix (any permutation optimal at 0).
  family.push_back(CostMatrix(n, n, 0.0));
  // Near-degenerate: a constant matrix with perturbations at the edge of
  // double precision.
  {
    CostMatrix m(n, n, 5.0);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        m.at(r, c) += rng.uniform(0.0, 1e-12);
      }
    }
    family.push_back(m);
  }

  AssignmentWorkspace ws;
  for (const CostMatrix& m : family) {
    const Assignment reference = solve_assignment_brute_force(m);
    const Assignment cold = ws.solve(CostView::of(m));
    EXPECT_TRUE(is_valid_partial_assignment(cold.row_to_col, n));
    EXPECT_NEAR(cold.total_cost, reference.total_cost, 1e-9);
    // Warm solve seeded by whatever the previous family member left behind
    // (same width, different costs): optimality must be unaffected.
    const Assignment warm = ws.solve_warm(CostView::of(m));
    EXPECT_TRUE(is_valid_partial_assignment(warm.row_to_col, n));
    EXPECT_NEAR(warm.total_cost, reference.total_cost, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelAdversarialProperty,
                         ::testing::Range(0, 28));

// Warm-start determinism: on continuous random costs (unique optimum with
// probability one) the warm solve must return the *identical* assignment as
// a cold solve, across 20 seeds, even when the inherited potentials come
// from an unrelated instance.
class WarmColdIdentityProperty : public ::testing::TestWithParam<int> {};

TEST_P(WarmColdIdentityProperty, WarmAssignmentIdenticalToCold) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 19);
  const std::size_t n = 12;
  const CostMatrix target = random_matrix(n, rng);
  const CostMatrix pollutant = random_matrix(n, rng);

  AssignmentWorkspace cold_ws;
  const Assignment cold = cold_ws.solve(CostView::of(target));

  AssignmentWorkspace warm_ws;
  warm_ws.solve(CostView::of(pollutant));  // leave non-trivial potentials
  const Assignment& warm = warm_ws.solve_warm(CostView::of(target));

  EXPECT_EQ(warm.row_to_col, cold.row_to_col);
  EXPECT_NEAR(warm.total_cost, cold.total_cost, 1e-9);

  // Re-solving the identical instance warm is the SSS steady state; it must
  // also reproduce the assignment exactly.
  const Assignment& again = warm_ws.solve_warm(CostView::of(target));
  EXPECT_EQ(again.row_to_col, cold.row_to_col);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WarmColdIdentityProperty,
                         ::testing::Range(0, 20));

TEST(Workspace, SolveAfterASolveRunsCold) {
  Rng rng(77);
  const CostMatrix a = random_matrix(6, rng);
  const CostMatrix b = random_matrix(6, rng);

  AssignmentWorkspace ws;
  ws.solve(CostView::of(a));
  const Assignment after = ws.solve(CostView::of(b));

  AssignmentWorkspace fresh;
  const Assignment cold = fresh.solve(CostView::of(b));
  EXPECT_EQ(after.row_to_col, cold.row_to_col);
  EXPECT_DOUBLE_EQ(after.total_cost, cold.total_cost);
}

// Rectangular rows < cols: the kernel leaves surplus columns unmatched.
// Ground truth is the classic reduction — pad with zero-cost dummy rows and
// solve square.
class RectangularProperty : public ::testing::TestWithParam<int> {};

/// Copies cols/2 random columns of the row-major rows×cols `table` onto
/// random others, so whole columns tie exactly (the tie at a row's pruning
/// threshold).
void copy_random_columns(std::vector<double>& table, std::size_t rows,
                         std::size_t cols, Rng& rng) {
  const auto pick = [&] {
    return rng.uniform_u32(static_cast<std::uint32_t>(cols));
  };
  for (std::size_t dup = 0; dup < cols / 2; ++dup) {
    const std::size_t src = pick();
    const std::size_t dst = pick();
    for (std::size_t r = 0; r < rows; ++r) {
      table[r * cols + dst] = table[r * cols + src];
    }
  }
}

/// A rows×cols table whose odd parameters have copied columns and whose
/// parameters ≡ 0 mod 3 are one column wider than tall.
std::vector<double> rectangular_table(int param, std::size_t& rows,
                                      std::size_t& cols) {
  Rng rng(static_cast<std::uint64_t>(param) * 613 + 3);
  rows = 2 + param % 4;  // 2..5
  cols = param % 3 == 0 ? rows + 1 : rows + 2 + param % 4;
  std::vector<double> table(rows * cols);
  for (double& x : table) x = rng.uniform(0.0, 10.0);
  if (param % 2 == 1) copy_random_columns(table, rows, cols, rng);
  return table;
}

TEST_P(RectangularProperty, MatchesZeroPaddedSquare) {
  std::size_t rows = 0;
  std::size_t cols = 0;
  const std::vector<double> table = rectangular_table(GetParam(), rows, cols);

  AssignmentWorkspace ws;
  const Assignment rect =
      ws.solve(CostView(table.data(), rows, cols, cols));
  EXPECT_EQ(rect.row_to_col.size(), rows);
  EXPECT_TRUE(is_valid_partial_assignment(rect.row_to_col, cols));

  CostMatrix padded(cols, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      padded.at(r, c) = table[r * cols + c];
    }
  }
  const Assignment reference = solve_assignment_brute_force(padded);
  EXPECT_NEAR(rect.total_cost, reference.total_cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectangularProperty, ::testing::Range(0, 24));

TEST(Workspace, ReusableAcrossChangingSizes) {
  Rng rng(5);
  AssignmentWorkspace ws;
  for (std::size_t n : {5u, 3u, 8u, 4u, 8u}) {
    const CostMatrix m = random_matrix(n, rng);
    const Assignment got = ws.solve(CostView::of(m));
    const Assignment want = solve_assignment_brute_force(m);
    EXPECT_NEAR(got.total_cost, want.total_cost, 1e-9) << "n=" << n;
    EXPECT_TRUE(is_valid_partial_assignment(got.row_to_col, n));
  }
}

// ---- ThreadCostCache plumbing -------------------------------------------

Workload random_workload(Rng& rng, std::size_t threads_a,
                         std::size_t threads_b) {
  Application a{"a", {}};
  Application b{"b", {}};
  for (std::size_t j = 0; j < threads_a; ++j) {
    a.threads.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0)});
  }
  for (std::size_t j = 0; j < threads_b; ++j) {
    b.threads.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 2.0)});
  }
  return Workload({a, b});
}

TEST(ThreadCostCache, RateSumMatchesDirectSummation) {
  Rng rng(42);
  const Workload wl = random_workload(rng, 7, 9);
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, LatencyParams{});
  const ThreadCostCache cache(wl, model);

  for (std::size_t first = 0; first < wl.num_threads(); ++first) {
    for (std::size_t count = 0; first + count <= wl.num_threads(); ++count) {
      double direct = 0.0;
      for (std::size_t j = first; j < first + count; ++j) {
        direct += wl.thread(j).total_rate();
      }
      EXPECT_NEAR(cache.rate_sum(first, count), direct, 1e-12);
    }
  }
}

TEST(ThreadCostCache, SamViewMatchesEq13) {
  Rng rng(9);
  const Workload wl = random_workload(rng, 6, 5);
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, LatencyParams{});
  const ThreadCostCache cache(wl, model);

  const std::size_t lo = wl.first_thread(1);
  const std::vector<TileId> tiles{14, 3, 9, 0, 7};
  const CostView view = cache.sam_view(lo, tiles);

  ASSERT_EQ(view.rows(), tiles.size());
  ASSERT_EQ(view.cols(), tiles.size());
  for (std::size_t r = 0; r < view.rows(); ++r) {
    for (std::size_t c = 0; c < view.cols(); ++c) {
      EXPECT_DOUBLE_EQ(view.at(r, c),
                       sam_cost(wl.thread(lo + r), model, tiles[c]));
    }
  }
}

TEST(Sam, WorkspaceOverloadMatchesClassicPath) {
  Rng rng(31);
  const Workload wl = random_workload(rng, 8, 6);
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, LatencyParams{});
  const ThreadCostCache cache(wl, model);

  // The classic path is the service's: the matrix from the thread profiles
  // (sam_cost_view) and an APL over a plain sum, where the cache uses a
  // prefix-sum difference.
  const std::size_t lo = wl.first_thread(0);
  const std::vector<TileId> tiles{2, 13, 5, 8, 11, 1, 15, 4};
  const std::vector<ThreadProfile>& threads = wl.application(0).threads;
  std::vector<double> cost;
  AssignmentWorkspace classic_ws;
  const Assignment& classic =
      classic_ws.solve(sam_cost_view(threads, tiles, model, cost));
  std::vector<TileId> classic_tiles;
  for (const std::size_t col : classic.row_to_col) {
    classic_tiles.push_back(tiles[col]);
  }
  double volume = 0.0;
  for (const ThreadProfile& t : threads) volume += t.total_rate();
  const double classic_apl = classic.total_cost / volume;

  AssignmentWorkspace ws;
  const SamResult cold = solve_sam(cache, lo, tiles, ws);
  EXPECT_EQ(cold.tiles, classic_tiles);
  EXPECT_NEAR(cold.apl, classic_apl, 1e-9);

  // Re-solves in the same workspace must keep returning the same answer.
  for (int pass = 0; pass < 3; ++pass) {
    const SamResult again = solve_sam(cache, lo, tiles, ws);
    EXPECT_EQ(again.tiles, classic_tiles);
    EXPECT_NEAR(again.apl, classic_apl, 1e-9);
  }
}

// ---- Parity pins --------------------------------------------------------
//
// Each pin records an FNV-1a/64 digest of row_to_col, total_cost as a
// hexfloat and the number of shortest-path steps the solve took. Any change
// to the kernel's arithmetic, its tie-breaking or its warm start moves one.

struct SolvePin {
  std::string digest;
  std::string total_cost;
  std::uint64_t path_steps = 0;
};

std::uint64_t path_steps_so_far() {
  for (const obs::MetricRow& row : obs::snapshot()) {
    if (row.name == "assign.path_steps") return row.count;
  }
  return 0;
}

SolvePin pin(const Assignment& a, std::uint64_t steps_before) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::size_t c : a.row_to_col) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (static_cast<std::uint64_t>(c) >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  SolvePin out;
  char buf[40];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(h));
  out.digest = buf;
  std::snprintf(buf, sizeof buf, "%a", a.total_cost);
  out.total_cost = buf;
  out.path_steps = path_steps_so_far() - steps_before;
  return out;
}

void expect_pin(const SolvePin& got, const char* digest,
                const char* total_cost, std::uint64_t path_steps) {
  EXPECT_EQ(got.digest, digest);
  EXPECT_EQ(got.total_cost, total_cost);
  if (obs::compiled_in()) {
    EXPECT_EQ(got.path_steps, path_steps);
  }
}

/// C1 with 4 x `threads_per_app` threads on a side x side chip, seed 21.
ObmProblem c1_problem(std::uint32_t side, std::size_t threads_per_app) {
  SynthesisOptions options;
  options.threads_per_app = threads_per_app;
  return ObmProblem(TileLatencyModel(Mesh::square(side), LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 21, options));
}

TEST(KernelPins, ColdDenseGlobalViewAndWarmResolveAfterTileTrade) {
  // The Global mapper's n = 256 solve over the whole cost table.
  const ObmProblem p = c1_problem(16, 64);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  AssignmentWorkspace ws;
  std::uint64_t before = path_steps_so_far();
  const Assignment& cold =
      ws.solve(CostView(cache.row(0), n, n, cache.row_stride()));
  expect_pin(pin(cold, before), "0x3890cf9c3fb86845",
             "0x1.4fa38eb433978p+16", 31897);

  // Tiles 17 and 200 trade columns; the re-solve starts from the cold
  // solve's column potentials.
  std::vector<std::uint32_t> cols(n);
  std::iota(cols.begin(), cols.end(), 0u);
  std::swap(cols[17], cols[200]);
  before = path_steps_so_far();
  const Assignment& warm = ws.solve_warm(
      CostView(cache.row(0), n, n, cache.row_stride(), cols.data()));
  expect_pin(pin(warm, before), "0xd27b59a31adc9ac5",
             "0x1.4fa38eb433983p+16", 1835);
}

TEST(KernelPins, RectangularApplicationOverTheWholeChip) {
  // One application's 16 threads against all 64 tiles of the 8x8 chip, the
  // shape of the relaxed per-application bound.
  const ObmProblem p = c1_problem(8, 16);
  const ThreadCostCache cache(p.workload(), p.model());
  const std::size_t lo = p.workload().first_thread(1);
  AssignmentWorkspace ws;
  const std::uint64_t before = path_steps_so_far();
  const Assignment& rect =
      ws.solve(CostView(cache.row(lo), 16, 64, cache.row_stride()));
  expect_pin(pin(rect, before), "0x77d0a2d29c0d3c45",
             "0x1.cb77fc0e32944p+10", 120);
}

TEST(KernelPins, ServiceBoundRouteOverTheWholeChip) {
  // The relaxed per-application bound as the online service solves it:
  // eq. 13 from thread profiles over all 64 tiles of the 8x8 chip, whose
  // mirror-symmetric tiles tie exactly, in one workspace for every bound.
  const TileLatencyModel model(Mesh::square(8), LatencyParams{});
  std::vector<TileId> tiles(64);
  std::iota(tiles.begin(), tiles.end(), TileId{0});
  struct Case {
    std::size_t threads;
    const char* digest;
    const char* total_cost;
    std::uint64_t path_steps;
  };
  const Case cases[] = {
      {2, "0xc1371a674032e98c", "0x1.d979b3e900d3p+7", 2},
      {9, "0x04ae7df33f56f50c", "0x1.c91779fb80133p+9", 21},
      {16, "0xe0c86b046562b171", "0x1.07d0c8e034b51p+11", 67}};
  Rng rng(17);
  std::vector<double> cost;
  AssignmentWorkspace ws;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.threads);
    std::vector<ThreadProfile> threads(c.threads);
    for (ThreadProfile& t : threads) {
      t = {rng.uniform(0.1, 10.0), rng.uniform(0.0, 2.0)};
    }
    const std::uint64_t before = path_steps_so_far();
    const Assignment& bound =
        ws.solve_warm(sam_cost_view(threads, tiles, model, cost));
    expect_pin(pin(bound, before), c.digest, c.total_cost, c.path_steps);
  }
}

TEST(KernelPins, RectangularTiesAcrossShapes) {
  // 300 small rectangular instances, 1-6 rows by up to 8 spare columns,
  // with costs from a four-value set or with columns copied onto others:
  // every exact tie of the rectangular path folded into one pin.
  Rng rng(29);
  AssignmentWorkspace ws;
  Assignment all;
  const std::uint64_t before = path_steps_so_far();
  for (int instance = 0; instance < 300; ++instance) {
    const std::size_t rows = 1 + rng.uniform_u32(6);
    const std::size_t cols = rows + 1 + rng.uniform_u32(8);
    std::vector<double> table(rows * cols);
    const bool few_values = instance % 2 == 0;
    for (double& x : table) {
      x = few_values ? 1.5 * rng.uniform_u32(4) : rng.uniform(0.0, 10.0);
    }
    if (!few_values) copy_random_columns(table, rows, cols, rng);
    const Assignment& a = ws.solve(CostView(table.data(), rows, cols, cols));
    all.row_to_col.insert(all.row_to_col.end(), a.row_to_col.begin(),
                          a.row_to_col.end());
    all.total_cost += a.total_cost;
  }
  expect_pin(pin(all, before), "0xb2c6b0b117b81f2a", "0x1.f4116fe20ac0fp+9",
             1490);
}

TEST(KernelPins, GatheredSamView) {
  // One 64-thread application onto every fourth tile of the 16x16 chip.
  const ObmProblem p = c1_problem(16, 64);
  const ThreadCostCache cache(p.workload(), p.model());
  const std::size_t lo = p.workload().first_thread(2);
  std::vector<TileId> tiles(64);
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    tiles[t] = static_cast<TileId>(4 * t + 2);
  }
  AssignmentWorkspace ws;
  const std::uint64_t before = path_steps_so_far();
  const Assignment& sam = ws.solve(cache.sam_view(lo, tiles));
  expect_pin(pin(sam, before), "0xed7dbd61d7d60f05",
             "0x1.cf12503319f8cp+14", 2019);
}

}  // namespace
}  // namespace nocmap
