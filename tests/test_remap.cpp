#include "core/remap.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "workload/synthesis.h"

namespace nocmap {
namespace {

ObmProblem c1_problem(std::uint64_t seed = 51) {
  const Mesh mesh = Mesh::square(8);
  return ObmProblem(TileLatencyModel(mesh, LatencyParams{}),
                    synthesize_workload(parsec_config("C1"), seed));
}

TEST(CountMoved, Basics) {
  const std::vector<ThreadProfile> threads(4, ThreadProfile{1.0, 0.5});
  const std::vector<TileId> a = {0, 1, 2, 3};
  const std::vector<TileId> b = {0, 2, 1, 3};
  EXPECT_EQ(count_migrations(threads, a, b), 2u);
  EXPECT_EQ(count_migrations(threads, a, a), 0u);
  // Shorter old placement: the extra threads count as moved.
  const std::vector<TileId> shorter = {0, 1};
  EXPECT_EQ(count_migrations(threads, shorter, a), 2u);
  // Zero-rate threads move for free.
  std::vector<ThreadProfile> padded = threads;
  padded[1] = ThreadProfile{0.0, 0.0};
  EXPECT_EQ(count_migrations(padded, a, b), 1u);
  EXPECT_EQ(count_migrations(padded, shorter, a), 2u);
}

/// A toy penalty probe over explicit solutions: at each λ it returns the
/// line minimizing cost + λ·weight (the first one on a tie), records λ, and
/// keeps the last fitting solution, as the search's callers do.
struct ToyEnvelope {
  struct Solution {
    PenaltyLine line;
    bool fits = false;
  };
  explicit ToyEnvelope(std::vector<Solution> all) : solutions(std::move(all)) {}

  std::vector<Solution> solutions;
  std::vector<double> probes;
  std::size_t kept = SIZE_MAX;

  PenaltyProbe operator()(double lambda) {
    probes.push_back(lambda);
    std::size_t best = 0;
    for (std::size_t s = 1; s < solutions.size(); ++s) {
      const PenaltyLine& a = solutions[s].line;
      const PenaltyLine& b = solutions[best].line;
      if (a.cost + lambda * a.weight < b.cost + lambda * b.weight) best = s;
    }
    if (solutions[best].fits) kept = best;
    return {solutions[best].line, solutions[best].fits};
  }
};

std::uint64_t counter(const char* name) {
  for (const obs::MetricRow& row : obs::snapshot()) {
    if (row.name == name) return row.count;
  }
  return 0;
}

TEST(PenaltySearch, WalksTheEnvelopeToTheExactBreakpoint) {
  // (C, W) = (0, 10) and (5, 6) move too much; (12, 3) and (30, 0) fit.
  // λ = 1 still picks (0, 10), 16 picks (30, 0); their lines cross at 3,
  // where (12, 3) fits; (0, 10) and (12, 3) cross at 12/7, where (5, 6)
  // does not; (5, 6) and (12, 3) cross at 7/3, where they tie: adjacent.
  ToyEnvelope toy({{{0, 10}, false},
                   {{5, 6}, false},
                   {{12, 3}, true},
                   {{30, 0}, true}});
  const std::uint64_t searches = counter("remap.penalty_searches");
  const std::uint64_t probes = counter("remap.penalty_probes");
  const double lambda = smallest_fitting_penalty(
      toy.solutions[0].line, [&](double l) { return toy(l); });
  EXPECT_EQ(toy.probes,
            (std::vector<double>{1.0, 16.0, 3.0, 12.0 / 7.0, 7.0 / 3.0}));
  EXPECT_EQ(lambda, 7.0 / 3.0);
  EXPECT_EQ(toy.kept, 2u);
  if (obs::compiled_in()) {
    EXPECT_EQ(counter("remap.penalty_searches") - searches, 1u);
    EXPECT_EQ(counter("remap.penalty_probes") - probes, 5u);
  }
}

TEST(PenaltySearch, ParallelLinesEndTheWalk) {
  // Two solutions with one line, only one of which fits: no crossing to
  // probe, so the walk stops at the first fitting probe.
  std::vector<double> probes;
  const double lambda =
      smallest_fitting_penalty({2.0, 4.0}, [&](double l) {
        probes.push_back(l);
        return PenaltyProbe{{2.0, 4.0}, l >= 16.0};
      });
  EXPECT_EQ(probes, (std::vector<double>{1.0, 16.0}));
  EXPECT_EQ(lambda, 16.0);
}

TEST(PenaltySearch, TieAtTheCrossingTerminates) {
  // (0, 10), (6, 5) and (12, 0) all cost 12 at λ = 6/5, where the first
  // and last cross. The tie there returns (6, 5), which fits; it crosses
  // (0, 10) at 6/5 again, the end of their range: the breakpoint.
  ToyEnvelope toy({{{6, 5}, true}, {{0, 10}, false}, {{12, 0}, true}});
  const double lambda = smallest_fitting_penalty(
      toy.solutions[1].line, [&](double l) { return toy(l); });
  EXPECT_EQ(toy.probes, (std::vector<double>{1.0, 16.0, 6.0 / 5.0}));
  EXPECT_EQ(lambda, 6.0 / 5.0);
  EXPECT_EQ(toy.kept, 0u);
}

TEST(PenaltySearch, CrossingAtTheBracketEndIsNotProbed) {
  // (0, 10) and (10, 0) cross at λ = 1, where the first probe picked the
  // one that does not fit: 1 is the breakpoint, and (10, 0), found at 16,
  // is optimal there too.
  ToyEnvelope toy({{{0, 10}, false}, {{10, 0}, true}});
  const double lambda = smallest_fitting_penalty(
      toy.solutions[0].line, [&](double l) { return toy(l); });
  EXPECT_EQ(toy.probes, (std::vector<double>{1.0, 16.0}));
  EXPECT_EQ(lambda, 1.0);
  EXPECT_EQ(toy.kept, 1u);
}

TEST(PenaltySearch, ReturnsInfinityWhenNothingFits) {
  std::size_t calls = 0;
  const double lambda = smallest_fitting_penalty({0.0, 1.0}, [&](double) {
    ++calls;
    return PenaltyProbe{{0.0, 1.0}, false};
  });
  EXPECT_TRUE(std::isinf(lambda));
  // Probes 16^0 .. 16^24; 16^25 exceeds 1e30.
  EXPECT_EQ(calls, 25u);
}

TEST(Remap, ZeroPenaltyMatchesSssQuality) {
  const ObmProblem p = c1_problem();
  SortSelectSwapMapper sss;
  const Mapping old = sss.map(p);
  const RemapResult r = remap_balanced(p, old, 0.0);
  EXPECT_TRUE(r.mapping.is_valid_permutation(p.num_threads()));
  const double sss_obj = evaluate(p, old).max_apl;
  EXPECT_NEAR(r.report.max_apl, sss_obj, 0.05);
}

TEST(Remap, RemapFromOwnSssSolutionMovesNothing) {
  // Old mapping == the fresh SSS solution: with any positive penalty, the
  // within-app Hungarian must keep everything in place.
  const ObmProblem p = c1_problem();
  SortSelectSwapMapper sss;
  const Mapping old = sss.map(p);
  const RemapResult r = remap_balanced(p, old, 10.0);
  EXPECT_EQ(r.moved_threads, 0u);
  EXPECT_EQ(r.mapping.thread_to_tile, old.thread_to_tile);
}

TEST(Remap, PenaltyReducesMigrations) {
  // Old mapping: a different workload seed's solution (application change).
  const ObmProblem p_old = c1_problem(51);
  const ObmProblem p_new(
      TileLatencyModel(Mesh::square(8), LatencyParams{}),
      synthesize_workload(parsec_config("C3"), 52));
  SortSelectSwapMapper sss;
  const Mapping old = sss.map(p_old);

  const RemapResult free_moves = remap_balanced(p_new, old, 0.0);
  const RemapResult costly = remap_balanced(p_new, old, 5.0);
  const RemapResult very_costly = remap_balanced(p_new, old, 1000.0);
  EXPECT_LE(costly.moved_threads, free_moves.moved_threads);
  EXPECT_LE(very_costly.moved_threads, costly.moved_threads);
}

TEST(Remap, BalanceMaintainedUnderPenalty) {
  const ObmProblem p_old = c1_problem(53);
  const ObmProblem p_new(
      TileLatencyModel(Mesh::square(8), LatencyParams{}),
      synthesize_workload(parsec_config("C5"), 54));
  SortSelectSwapMapper sss;
  const Mapping old = sss.map(p_old);
  const RemapResult r = remap_balanced(p_new, old, 100.0);
  // Tile sets come from fresh SSS, so balance survives any penalty: the
  // sticky within-app assignment perturbs APLs slightly but stays an order
  // of magnitude below Global's ~2-cycle dev-APL.
  EXPECT_LT(r.report.dev_apl, 0.5);
}

TEST(Remap, QualityDegradesGracefullyWithPenalty) {
  const ObmProblem p_old = c1_problem(55);
  const ObmProblem p_new(
      TileLatencyModel(Mesh::square(8), LatencyParams{}),
      synthesize_workload(parsec_config("C4"), 56));
  SortSelectSwapMapper sss;
  const Mapping old = sss.map(p_old);
  const RemapResult free_moves = remap_balanced(p_new, old, 0.0);
  const RemapResult sticky = remap_balanced(p_new, old, 1000.0);
  // Sticking to old positions can only cost (within-app assignment is no
  // longer latency-optimal), but the tile sets bound the damage.
  EXPECT_GE(sticky.report.max_apl, free_moves.report.max_apl - 1e-9);
  EXPECT_LT(sticky.report.max_apl, free_moves.report.max_apl * 1.15);
}

TEST(Remap, NewThreadsCountAsMoved) {
  // Old mapping shorter than the new problem (application arrived).
  const ObmProblem p = c1_problem(57);
  Mapping tiny;
  tiny.thread_to_tile = {};  // nobody had a position
  const RemapResult r = remap_balanced(p, tiny, 3.0);
  EXPECT_EQ(r.moved_threads, p.num_threads());
}

TEST(Remap, NegativePenaltyRejected) {
  const ObmProblem p = c1_problem();
  EXPECT_THROW(remap_balanced(p, p.identity_mapping(), -1.0), Error);
}

TEST(BudgetedRemap, BudgetZeroForcesIdentity) {
  // Old mapping from a different workload: the fresh tile sets differ, so
  // an unconstrained remap would move threads — budget 0 must not.
  const ObmProblem p_old = c1_problem(61);
  const ObmProblem p_new(
      TileLatencyModel(Mesh::square(8), LatencyParams{}),
      synthesize_workload(parsec_config("C3"), 62));
  SortSelectSwapMapper sss;
  const Mapping old = sss.map(p_old);

  const BudgetedRemapResult r = remap_budgeted(p_new, old, 0);
  EXPECT_EQ(r.remap.moved_threads, 0u);
  for (std::size_t j = 0; j < p_new.num_threads(); ++j) {
    if (p_new.workload().thread(j).total_rate() <= 0.0) continue;
    EXPECT_EQ(r.remap.mapping.thread_to_tile[j], old.thread_to_tile[j])
        << "thread " << j << " migrated under a zero budget";
  }
  if (r.reverted_to_old) {
    EXPECT_EQ(r.remap.mapping.thread_to_tile, old.thread_to_tile);
  }
}

TEST(BudgetedRemap, UnboundedBudgetMatchesUnconstrainedRemap) {
  const ObmProblem p_old = c1_problem(63);
  const ObmProblem p_new(
      TileLatencyModel(Mesh::square(8), LatencyParams{}),
      synthesize_workload(parsec_config("C5"), 64));
  SortSelectSwapMapper sss;
  const Mapping old = sss.map(p_old);

  const BudgetedRemapResult unbounded =
      remap_budgeted(p_new, old, static_cast<std::size_t>(-1));
  const RemapResult free_moves = remap_balanced(p_new, old, 0.0);
  EXPECT_EQ(unbounded.remap.mapping.thread_to_tile,
            free_moves.mapping.thread_to_tile);
  EXPECT_EQ(unbounded.remap.moved_threads, free_moves.moved_threads);
  EXPECT_EQ(unbounded.penalty_cycles, 0.0);
  EXPECT_FALSE(unbounded.reverted_to_old);
}

TEST(BudgetedRemap, BudgetSweepAlwaysRespected) {
  const ObmProblem p_old = c1_problem(65);
  const ObmProblem p_new(
      TileLatencyModel(Mesh::square(8), LatencyParams{}),
      synthesize_workload(parsec_config("C4"), 66));
  SortSelectSwapMapper sss;
  const Mapping old = sss.map(p_old);

  const std::size_t unconstrained =
      remap_balanced(p_new, old, 0.0).moved_threads;
  for (const std::size_t budget : {std::size_t{0}, std::size_t{2},
                                   std::size_t{5}, std::size_t{11},
                                   unconstrained / 2, unconstrained}) {
    const BudgetedRemapResult r = remap_budgeted(p_new, old, budget);
    EXPECT_TRUE(r.remap.mapping.is_valid_permutation(p_new.num_threads()));
    EXPECT_LE(r.remap.moved_threads, budget) << "budget " << budget;
  }
}

TEST(BudgetedRemap, DepartureFreesNonContiguousRegion) {
  // Three applications resident, the middle one departs: its freed tiles
  // are scattered across the chip (SSS interleaves tile sets), and the
  // survivors' old positions must line up with the *new* problem's thread
  // order with the pad threads parked on the freed tiles.
  const Mesh mesh = Mesh::square(4);
  const TileLatencyModel model(mesh, LatencyParams{});
  SynthesisOptions opt;
  opt.num_applications = 3;
  opt.threads_per_app = 5;
  const Workload full =
      synthesize_workload(parsec_config("C2"), 67, opt).padded_to(16);
  const ObmProblem p_full(model, Workload{full});
  SortSelectSwapMapper sss;
  const Mapping before = sss.map(p_full);

  // Rebuild the workload without application 1 and align the old mapping.
  std::vector<Application> survivors = {full.application(0),
                                        full.application(2)};
  const ObmProblem p_after(
      model, Workload{std::move(survivors)}.padded_to(16));
  Mapping old;
  std::vector<bool> kept(16, false);
  for (const std::size_t a : {std::size_t{0}, std::size_t{2}}) {
    for (std::size_t j = full.first_thread(a); j < full.last_thread(a);
         ++j) {
      old.thread_to_tile.push_back(before.thread_to_tile[j]);
      kept[before.thread_to_tile[j]] = true;
    }
  }
  std::size_t contiguity_breaks = 0;
  for (TileId k = 0; k < 16; ++k) {
    if (!kept[k]) old.thread_to_tile.push_back(k);
    if (k > 0 && !kept[k] != !kept[k - 1]) ++contiguity_breaks;
  }
  ASSERT_TRUE(old.is_valid_permutation(16));
  // The departed application's region really is non-contiguous in tile id
  // space (otherwise this test degenerates to the trivial suffix case).
  ASSERT_GT(contiguity_breaks, 1u);

  const BudgetedRemapResult tight = remap_budgeted(p_after, old, 3);
  EXPECT_TRUE(tight.remap.mapping.is_valid_permutation(16));
  EXPECT_LE(tight.remap.moved_threads, 3u);

  // With the freed region available, an unbounded remap must do at least
  // as well as staying put.
  const BudgetedRemapResult loose =
      remap_budgeted(p_after, old, static_cast<std::size_t>(-1));
  EXPECT_LE(loose.remap.report.max_apl,
            evaluate(p_after, old).max_apl + 1e-9);
}

}  // namespace
}  // namespace nocmap
