// Bit-identity contract of the objective scorer (DESIGN.md §14.1): every
// lane scored by BatchEvaluator must equal evaluate()'s objective on the
// same permutation to the last bit — the mappers' search decisions are
// rewired through the batched pass on that guarantee. Also covers the
// candidate-major score_rows path, the table's folds from numerators, the
// zero-volume slot, MappingEvaluator's window kernel against apply_group
// and its can_improve() window check, worker-count invariance of a fitness
// fan-out through ParallelTrialRunner::for_each_batch, and the fast_exp_neg
// kernel the annealer's acceptance test runs on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "core/evaluator.h"
#include "core/metrics.h"
#include "core/parallel.h"
#include "core/problem.h"
#include "util/fastmath.h"
#include "util/rng.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem make_problem(std::uint32_t side, std::uint64_t seed) {
  const Mesh mesh = Mesh::square(side);
  SynthesisOptions opt;
  opt.num_applications = 4;
  opt.threads_per_app = mesh.num_tiles() / 4;
  const auto configs = parsec_table3_configs();
  const ConfigSpec& spec = configs[seed % configs.size()];
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(spec, 500 + seed, opt));
}

std::vector<TileId> random_perm(std::size_t n, Rng& rng) {
  std::vector<TileId> perm(n);
  std::iota(perm.begin(), perm.end(), TileId{0});
  rng.shuffle(perm);
  return perm;
}

double reference_objective(const ObmProblem& p, std::vector<TileId> perm) {
  Mapping m;
  m.thread_to_tile = std::move(perm);
  return evaluate(p, m).objective;
}

TEST(BatchEvaluator, BitIdenticalToScalarAcrossSizes) {
  for (const std::uint32_t side : {4u, 8u}) {
    const ObmProblem p = make_problem(side, side);
    const std::size_t n = p.num_threads();
    const ThreadCostCache cache(p.workload(), p.model());
    const BatchEvaluator evaluator(p, cache);
    Rng rng(11 + side);

    constexpr std::size_t kCount = 64;
    CandidateBatch batch(n, kCount);
    std::vector<std::vector<TileId>> perms;
    for (std::size_t b = 0; b < kCount; ++b) {
      perms.push_back(random_perm(n, rng));
      batch.load(b, perms.back());
    }
    std::vector<double> scores(kCount);
    evaluator.score(batch, kCount, scores);
    for (std::size_t b = 0; b < kCount; ++b) {
      EXPECT_EQ(scores[b], reference_objective(p, perms[b]))
          << "lane " << b << " side " << side;
    }
  }
}

TEST(BatchEvaluator, RaggedFinalBlockAndSingleLane) {
  const ObmProblem p = make_problem(8, 1);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator evaluator(p, cache);
  Rng rng(29);

  // 137 = 128 + 9: one full internal sub-block plus a ragged tail; also
  // exercise count < capacity and the K=1 degenerate batch.
  for (const std::size_t count :
       {std::size_t{137}, std::size_t{5}, std::size_t{1}}) {
    CandidateBatch batch(n, count == 5 ? 8 : count);  // capacity may exceed
    std::vector<std::vector<TileId>> perms;
    for (std::size_t b = 0; b < count; ++b) {
      perms.push_back(random_perm(n, rng));
      batch.load(b, perms.back());
    }
    std::vector<double> scores(count, -1.0);
    evaluator.score(batch, count, scores);
    for (std::size_t b = 0; b < count; ++b) {
      EXPECT_EQ(scores[b], reference_objective(p, perms[b]))
          << "lane " << b << " of " << count;
    }
  }
}

TEST(BatchEvaluator, FoldsMatchEvaluateOnCanonicalNumerators) {
  const ObmProblem p = make_problem(8, 3);
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator evaluator(p, cache);
  Rng rng(37);
  const std::vector<TileId> perm = random_perm(p.num_threads(), rng);

  std::vector<double> num(evaluator.apps().size());
  for (std::size_t s = 0; s < num.size(); ++s) {
    num[s] = evaluator.numerator(s, perm.data());
  }
  const LatencyReport r = evaluate(p, Mapping{perm});
  EXPECT_EQ(evaluator.objective(num), r.objective);
  EXPECT_EQ(evaluator.max_apl(num), r.max_apl);
  std::vector<double> score(1);
  evaluator.score_rows(perm.data(), perm.size(), 1, score);
  EXPECT_EQ(score[0], evaluator.objective(num));
}

TEST(BatchEvaluator, ZeroVolumeApplicationsTakeTheSpareSlot) {
  const Mesh mesh = Mesh::square(4);
  const Application busy{"busy",
                         std::vector<ThreadProfile>(6, ThreadProfile{0.4, 0.1})};
  const Application idle{"idle",
                         std::vector<ThreadProfile>(4, ThreadProfile{0.0, 0.0})};
  const Application tail{"tail",
                         std::vector<ThreadProfile>(6, ThreadProfile{0.2, 0.3})};
  const ObmProblem p(TileLatencyModel(mesh, LatencyParams{}),
                     Workload({busy, idle, tail}));
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator evaluator(p, cache);

  ASSERT_EQ(evaluator.apps().size(), 2u);
  EXPECT_EQ(evaluator.apps()[1].first, 10u);
  for (std::size_t j = 0; j < p.num_threads(); ++j) {
    const std::uint32_t want = j < 6 ? 0 : j < 10 ? 2 : 1;
    EXPECT_EQ(evaluator.slots()[j], want) << "thread " << j;
  }
  Rng rng(5);
  const std::vector<TileId> perm = random_perm(p.num_threads(), rng);
  std::vector<double> score(1);
  evaluator.score_rows(perm.data(), perm.size(), 1, score);
  EXPECT_EQ(score[0], evaluate(p, Mapping{perm}).objective);
}

TEST(MappingEvaluatorBatch, GroupCandidatesBitMatchApplyGroup) {
  const ObmProblem p = make_problem(8, 4);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  Rng rng(41);
  MappingEvaluator eval(p, Mapping{random_perm(n, rng)}, cache);

  // Random 3-thread window, all 6 within-group permutations as candidates.
  const std::vector<std::size_t> threads = {2, 17, 40};
  std::vector<TileId> held;
  for (const std::size_t j : threads) held.push_back(eval.mapping().tile_of(j));
  std::vector<std::vector<TileId>> cands;
  std::vector<TileId> perm = held;
  std::sort(perm.begin(), perm.end());
  do {
    cands.push_back(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));

  const std::size_t count = cands.size();
  std::vector<TileId> transposed(threads.size() * count);
  for (std::size_t x = 0; x < threads.size(); ++x) {
    for (std::size_t b = 0; b < count; ++b) {
      transposed[x * count + b] = cands[b][x];
    }
  }
  std::vector<double> scores(count);
  eval.score_group_candidates(threads, transposed.data(), count, scores);

  for (std::size_t b = 0; b < count; ++b) {
    eval.apply_group(threads, cands[b]);
    EXPECT_EQ(scores[b], eval.objective()) << "candidate " << b;
    eval.apply_group(threads, held);  // revert
  }
}

TEST(MappingEvaluatorBatch, CanImproveIsFalseOnlyWhenNoCandidateCanWin) {
  const ObmProblem p = make_problem(8, 4);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator table(p, cache);
  Rng rng(43);
  MappingEvaluator eval(p, Mapping{random_perm(n, rng)}, cache);

  // The application attaining objective(), alone at the top.
  const std::span<const BatchEvaluator::App> apps = table.apps();
  std::vector<double> terms;
  for (std::size_t s = 0; s < apps.size(); ++s) {
    terms.push_back(apps[s].weight *
                    table.numerator(s, eval.mapping().thread_to_tile.data()) /
                    apps[s].volume);
  }
  const std::size_t top = static_cast<std::size_t>(
      std::max_element(terms.begin(), terms.end()) - terms.begin());
  ASSERT_EQ(terms[top], eval.objective());
  ASSERT_EQ(std::count(terms.begin(), terms.end(), terms[top]), 1);

  // Four threads, two of them in one application, none in the top one;
  // then the same group with its last thread swapped for one of the top.
  std::vector<std::size_t> away;
  for (std::size_t s = 0; s < apps.size() && away.size() < 4; ++s) {
    if (s == top) continue;
    away.push_back(apps[s].first + 3);
    if (away.size() < 4) away.push_back(apps[s].first + 9);
  }
  ASSERT_EQ(away.size(), 4u);
  std::vector<std::size_t> with = away;
  with.back() = apps[top].first + 5;

  EXPECT_FALSE(eval.can_improve(away));
  EXPECT_TRUE(eval.can_improve(with));

  // The 23 non-identity candidates of the away group all score at least
  // objective(), and exactly what apply_group would report.
  std::vector<TileId> held;
  for (const std::size_t j : away) held.push_back(eval.mapping().tile_of(j));
  std::vector<std::size_t> order(away.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::vector<TileId>> cands;
  while (std::next_permutation(order.begin(), order.end())) {
    std::vector<TileId> cand;
    for (const std::size_t x : order) cand.push_back(held[x]);
    cands.push_back(cand);
  }
  const std::size_t count = cands.size();
  ASSERT_EQ(count, 23u);
  std::vector<TileId> transposed(away.size() * count);
  for (std::size_t x = 0; x < away.size(); ++x) {
    for (std::size_t b = 0; b < count; ++b) {
      transposed[x * count + b] = cands[b][x];
    }
  }
  std::vector<double> scores(count);
  eval.score_group_candidates(away, transposed.data(), count, scores);
  const double objective = eval.objective();
  for (std::size_t b = 0; b < count; ++b) {
    EXPECT_GE(scores[b], objective) << "candidate " << b;
    eval.apply_group(away, cands[b]);
    EXPECT_EQ(scores[b], eval.objective()) << "candidate " << b;
    eval.apply_group(away, held);  // revert
  }
}

TEST(BatchEvaluator, FanOutIsWorkerCountInvariant) {
  const ObmProblem p = make_problem(8, 6);
  const std::size_t n = p.num_threads();
  const ThreadCostCache cache(p.workload(), p.model());
  const BatchEvaluator evaluator(p, cache);
  Rng rng(47);

  constexpr std::size_t kPop = 70;  // ragged over the batch size below
  std::vector<TileId> rows(kPop * n);
  for (std::size_t b = 0; b < kPop; ++b) {
    const std::vector<TileId> perm = random_perm(n, rng);
    std::copy(perm.begin(), perm.end(), rows.begin() + b * n);
  }

  auto run = [&](std::size_t workers) {
    std::vector<double> fit(kPop, -1.0);
    ParallelTrialRunner runner(ParallelConfig{workers});
    runner.for_each_batch(kPop, 16, [&](std::size_t lo, std::size_t hi) {
      evaluator.score_rows(rows.data() + lo * n, n, hi - lo,
                           std::span<double>(fit.data() + lo, hi - lo));
    });
    return fit;
  };

  const std::vector<double> serial = run(1);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{8}}) {
    const std::vector<double> parallel = run(workers);
    for (std::size_t b = 0; b < kPop; ++b) {
      EXPECT_EQ(parallel[b], serial[b])
          << "slot " << b << " at " << workers << " workers";
    }
  }
}

TEST(FastMath, ExpNegMatchesLibmTo1e8) {
  // The annealer compares fast_exp_neg against a 2^-32-resolution uniform
  // variate; 1e-8 relative error is two orders tighter than it needs.
  for (double x = 0.0; x < 60.0; x += 0.0137) {
    const double got = fast_exp_neg(x);
    const double want = std::exp(-x);
    EXPECT_NEAR(got, want, 1e-8 * want) << "x=" << x;
  }
  EXPECT_EQ(fast_exp_neg(0.0), 1.0);
  EXPECT_EQ(fast_exp_neg(2000.0), 0.0);  // past the flush-to-zero threshold
  // Monotone non-increasing across the flush boundary.
  EXPECT_GE(fast_exp_neg(700.0), 0.0);
  EXPECT_LE(fast_exp_neg(700.0), fast_exp_neg(699.0));
}

}  // namespace
}  // namespace nocmap
