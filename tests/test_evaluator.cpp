#include "core/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/metrics.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem c1_problem() {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), 17));
}

Mapping random_mapping(std::size_t n, Rng& rng) {
  Mapping m;
  for (std::size_t v : random_permutation(n, rng)) {
    m.thread_to_tile.push_back(static_cast<TileId>(v));
  }
  return m;
}

TEST(Evaluator, InitialStateMatchesEvaluate) {
  const ObmProblem p = c1_problem();
  Rng rng(1);
  const Mapping m = random_mapping(p.num_threads(), rng);
  const ThreadCostCache cache(p.workload(), p.model());
  const MappingEvaluator eval(p, m, cache);
  const LatencyReport r = evaluate(p, m);
  EXPECT_NEAR(eval.max_apl(), r.max_apl, 1e-9);
  EXPECT_NEAR(eval.objective(), r.objective, 1e-9);
}

TEST(Evaluator, InvalidInitialMappingRejected) {
  const ObmProblem p = c1_problem();
  Mapping bad;
  bad.thread_to_tile.assign(p.num_threads(), 0);
  const ThreadCostCache cache(p.workload(), p.model());
  EXPECT_THROW(MappingEvaluator(p, bad, cache), Error);
}

TEST(Evaluator, TileToThreadConsistent) {
  const ObmProblem p = c1_problem();
  Rng rng(2);
  const Mapping m = random_mapping(p.num_threads(), rng);
  const ThreadCostCache cache(p.workload(), p.model());
  const MappingEvaluator eval(p, m, cache);
  for (std::size_t j = 0; j < p.num_threads(); ++j) {
    EXPECT_EQ(eval.thread_on(m.tile_of(j)), j);
  }
}

TEST(Evaluator, SwapUpdatesMapping) {
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  eval.swap_threads(3, 9);
  EXPECT_EQ(eval.mapping().tile_of(3), 9u);
  EXPECT_EQ(eval.mapping().tile_of(9), 3u);
  EXPECT_EQ(eval.thread_on(9), 3u);
  EXPECT_EQ(eval.thread_on(3), 9u);
}

TEST(Evaluator, SwapSelfIsNoOp) {
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  const double before = eval.max_apl();
  eval.swap_threads(5, 5);
  EXPECT_DOUBLE_EQ(eval.max_apl(), before);
  EXPECT_EQ(eval.mapping().tile_of(5), 5u);
}

TEST(Evaluator, SwapIsInvolution) {
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  const double before = eval.max_apl();
  eval.swap_threads(1, 50);
  eval.swap_threads(1, 50);
  EXPECT_NEAR(eval.max_apl(), before, 1e-9);
  EXPECT_EQ(eval.mapping().tile_of(1), 1u);
}

// Property sweep: after many random swaps the incremental state must still
// agree with a from-scratch recomputation.
class EvaluatorDriftProperty : public ::testing::TestWithParam<int> {};

TEST_P(EvaluatorDriftProperty, NoDriftAfterRandomSwaps) {
  const ObmProblem p = c1_problem();
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, random_mapping(p.num_threads(), rng), cache);
  const auto n = static_cast<std::uint32_t>(p.num_threads());
  for (int step = 0; step < 500; ++step) {
    eval.swap_threads(rng.uniform_u32(n), rng.uniform_u32(n));
  }
  EXPECT_NEAR(eval.max_apl(), evaluate(p, eval.mapping()).max_apl, 1e-8);
  EXPECT_TRUE(eval.mapping().is_valid_permutation(p.num_threads()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorDriftProperty,
                         ::testing::Range(0, 10));

TEST(Evaluator, ApplyGroupPermutesWithinGroup) {
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  const std::vector<std::size_t> threads{2, 7, 11, 30};
  const std::vector<TileId> rotated{7, 11, 30, 2};  // rotate assignments
  eval.apply_group(threads, rotated);
  EXPECT_EQ(eval.mapping().tile_of(2), 7u);
  EXPECT_EQ(eval.mapping().tile_of(7), 11u);
  EXPECT_EQ(eval.mapping().tile_of(11), 30u);
  EXPECT_EQ(eval.mapping().tile_of(30), 2u);
  EXPECT_TRUE(eval.mapping().is_valid_permutation(p.num_threads()));
  EXPECT_NEAR(eval.max_apl(), evaluate(p, eval.mapping()).max_apl, 1e-9);
}

TEST(Evaluator, ApplyGroupRevert) {
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  const double before = eval.max_apl();
  const std::vector<std::size_t> threads{1, 2, 3, 4};
  const std::vector<TileId> perm{4, 3, 2, 1};
  const std::vector<TileId> original{1, 2, 3, 4};
  eval.apply_group(threads, perm);
  eval.apply_group(threads, original);
  EXPECT_NEAR(eval.max_apl(), before, 1e-9);
}

TEST(Evaluator, ApplyGroupArityChecked) {
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  const std::vector<std::size_t> threads{1, 2};
  const std::vector<TileId> tiles{1};
  EXPECT_THROW(eval.apply_group(threads, tiles), Error);
}

// ---------------------------------------------------------------------------
// Long mixed-operation property sweeps. These lock in the purity invariant
// the parallel SSS sweep depends on: evaluator state must be a function of
// the current mapping only, never of the mutation history that produced it.

/// One random mutation: a two-thread swap or a small group permutation.
void random_op(MappingEvaluator& eval, std::size_t n, Rng& rng) {
  if (rng.uniform_u32(2) == 0) {
    eval.swap_threads(rng.uniform_u32(static_cast<std::uint32_t>(n)),
                      rng.uniform_u32(static_cast<std::uint32_t>(n)));
    return;
  }
  const std::size_t k = 3 + rng.uniform_u32(3);  // group of 3..5 threads
  const std::vector<std::size_t> perm = random_permutation(n, rng);
  const std::vector<std::size_t> threads(perm.begin(),
                                         perm.begin() +
                                             static_cast<std::ptrdiff_t>(k));
  std::vector<TileId> tiles(k);
  for (std::size_t i = 0; i < k; ++i) {
    tiles[i] = eval.mapping().tile_of(threads[i]);
  }
  // Rotate by a random amount so the group actually moves.
  std::rotate(tiles.begin(),
              tiles.begin() + 1 + rng.uniform_u32(static_cast<std::uint32_t>(
                                      k - 1)),
              tiles.end());
  eval.apply_group(threads, tiles);
}

void run_mixed_op_sweep(const ObmProblem& p, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = p.num_threads();
  Mapping start;
  for (std::size_t v : random_permutation(n, rng)) {
    start.thread_to_tile.push_back(static_cast<TileId>(v));
  }
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, start, cache);
  for (int step = 1; step <= 10000; ++step) {
    random_op(eval, n, rng);
    if (step % 500 == 0) {
      // Incremental objective vs. a full from-scratch evaluation.
      const LatencyReport r = evaluate(p, eval.mapping());
      ASSERT_NEAR(eval.objective(), r.objective, 1e-9) << "step " << step;
      ASSERT_NEAR(eval.max_apl(), r.max_apl, 1e-9) << "step " << step;
    }
  }
  ASSERT_TRUE(eval.mapping().is_valid_permutation(n));
  // Purity: the state must be bit-identical to a fresh evaluator built from
  // the final mapping — 10k mutations may leave no floating-point residue.
  const MappingEvaluator fresh(p, eval.mapping(), cache);
  EXPECT_EQ(eval.objective(), fresh.objective());
  EXPECT_EQ(eval.max_apl(), fresh.max_apl());
}

TEST(EvaluatorProperty, TenThousandMixedOpsNoDrift) {
  run_mixed_op_sweep(c1_problem(), 2024);
}

TEST(EvaluatorProperty, TenThousandMixedOpsWeightedQos) {
  // Weighted objective max_i w_i·APL_i must track the recomputed report
  // through the same mutation storm.
  const Mesh mesh = Mesh::square(8);
  ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
               synthesize_workload(parsec_config("C4"), 23),
               {2.0, 0.5, 1.0, 1.25});
  ASSERT_EQ(p.app_weight(0), 2.0);
  run_mixed_op_sweep(p, 777);
}

TEST(EvaluatorProperty, CacheStoresTheModelCostExactly) {
  // The evaluator reads eq. 13 only through the cache, so every entry must
  // be bit-identical to c_j·TC(k) + m_j·TM(k) computed from the model.
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  for (std::size_t j = 0; j < p.num_threads(); ++j) {
    const ThreadProfile& t = p.workload().thread(j);
    for (TileId k = 0; k < p.num_tiles(); ++k) {
      const double model_cost =
          t.cache_rate * p.model().tc(k) + t.memory_rate * p.model().tm(k);
      ASSERT_EQ(cache.cost(j, k), model_cost) << "thread " << j << " tile " << k;
    }
  }
}

TEST(EvaluatorProperty, ZeroTrafficApplicationIsIgnoredByMaxApl) {
  // An application whose threads never issue requests has an undefined APL;
  // the evaluator defines it as 0 and must keep it out of max/objective.
  const Mesh mesh = Mesh::square(4);
  Application busy{"busy", std::vector<ThreadProfile>(
                               8, ThreadProfile{0.4, 0.1})};
  Application idle{"idle", std::vector<ThreadProfile>(
                               8, ThreadProfile{0.0, 0.0})};
  ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
               Workload({busy, idle}));
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  const LatencyReport r = evaluate(p, eval.mapping());
  ASSERT_EQ(r.apl[1], 0.0);
  EXPECT_GT(r.apl[0], 0.0);
  EXPECT_NEAR(eval.max_apl(), r.apl[0], 1e-12);
  EXPECT_EQ(eval.objective(), eval.max_apl());
  // Swapping an idle thread with a busy one only moves the busy APL, and
  // the incremental state stays exact.
  Rng rng(3);
  for (int step = 0; step < 1000; ++step) {
    random_op(eval, p.num_threads(), rng);
  }
  const MappingEvaluator fresh(p, eval.mapping(), cache);
  EXPECT_EQ(eval.max_apl(), fresh.max_apl());
  EXPECT_NEAR(eval.max_apl(), evaluate(p, eval.mapping()).apl[0], 1e-9);
}

TEST(EvaluatorProperty, StateIsIndependentOfMutationHistory) {
  // Two different mutation paths that land on the same mapping must produce
  // bit-identical evaluator state (the core of parallel determinism: a
  // snapshot that churns through candidates and reverts equals one that
  // never touched them).
  const ObmProblem p = c1_problem();
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator churned(p, p.identity_mapping(), cache);
  Rng rng(12);
  for (int step = 0; step < 200; ++step) {
    const auto j1 =
        rng.uniform_u32(static_cast<std::uint32_t>(p.num_threads()));
    const auto j2 =
        rng.uniform_u32(static_cast<std::uint32_t>(p.num_threads()));
    churned.swap_threads(j1, j2);
    churned.swap_threads(j1, j2);  // and immediately undo
  }
  const MappingEvaluator untouched(p, p.identity_mapping(), cache);
  EXPECT_EQ(churned.objective(), untouched.objective());
  EXPECT_EQ(churned.mapping().thread_to_tile,
            untouched.mapping().thread_to_tile);
}

TEST(Evaluator, SwapAcrossAppsChangesBothApls) {
  const ObmProblem p = c1_problem();
  // Threads 0 and 63 are in different applications (4 x 16 layout).
  ASSERT_NE(p.workload().application_of(0), p.workload().application_of(63));
  const ThreadCostCache cache(p.workload(), p.model());
  MappingEvaluator eval(p, p.identity_mapping(), cache);
  const std::size_t app0 = p.workload().application_of(0);
  const double a0 = evaluate(p, eval.mapping()).apl[app0];
  eval.swap_threads(0, 63);
  // Tiles 0 (corner) and 63 (corner) have equal TC but the threads' rates
  // differ, so at least the numerators moved; verify against recompute.
  EXPECT_NEAR(eval.max_apl(), evaluate(p, eval.mapping()).max_apl, 1e-9);
  // And a swap between corner and center tiles definitely changes APLs.
  eval.swap_threads(0, eval.thread_on(27));
  const LatencyReport after = evaluate(p, eval.mapping());
  EXPECT_NE(after.apl[app0], a0);
  EXPECT_NEAR(eval.objective(), after.objective, 1e-9);
}

}  // namespace
}  // namespace nocmap
