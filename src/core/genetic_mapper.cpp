#include "core/genetic_mapper.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace nocmap {

namespace {

// Generation-throughput metrics (docs/metrics-schema.md). Evaluations are
// summed locally across the run and published once, off the breeding loop.
const obs::Timer t_map("ga.map");
const obs::Counter c_generations("ga.generations");
const obs::Counter c_evaluations("ga.evaluations");

// Genomes scored per batch-evaluator call when the initial population's
// fitness fans out (later generations maintain fitness incrementally via
// the numerator deltas below, so only generation zero rescores). Small
// enough that a default population still splits into independent work
// units for the parallel runner, large enough to amortize the cost-row
// traversal (lane amortization is within ~10% of its asymptote by 32
// lanes); per-genome fitness is independent of the blocking, so the value
// of this constant never changes results.
constexpr std::size_t kFitnessBatch = 32;

// Operator rates and the individuals copied unchanged into each generation.
constexpr double kCrossoverRate = 0.9;
constexpr double kMutationRate = 0.2;  ///< probability of one swap per child
constexpr std::size_t kElites = 2;

/// Two bounded indices from one raw 32-bit draw: the first is the
/// multiply-shift map (x·bound) >> 32, the second reuses the low 32 bits of
/// that product as a fresh variate. Carries the plain multiply-shift modulo
/// bias of order bound/2^32 (< 1e-6 at bench scale) instead of uniform_u32's
/// rejection-free exactness — irrelevant for selection pressure and operator
/// sites, and it halves the serial PCG traffic of the breeding loop.
inline std::pair<std::uint32_t, std::uint32_t> bounded_pair(
    Rng& rng, std::uint32_t bound) {
  const std::uint64_t x = rng();
  const std::uint64_t m1 = x * bound;
  const std::uint64_t m2 =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(m1)) * bound;
  return {static_cast<std::uint32_t>(m1 >> 32),
          static_cast<std::uint32_t>(m2 >> 32)};
}

/// Partially mapped crossover in the copy-then-repair formulation: the
/// child starts as a full row copy of parent b, the segment [lo, hi] is
/// overwritten from parent a, and only the values that overwrite displaced
/// (the classic PMX repair set — at most segment-length of them) are
/// relocated by chasing the mapping chain through the parents' inverse
/// permutations. Work is O(n) memcpy plus O(segment) repair instead of an
/// O(n) per-position chase scan, and the maintained inverse rows make both
/// the segment-membership test and the chase single loads. The child's
/// inverse row is produced alongside, so inverses stay pool-resident and
/// never need an O(n) rebuild.
///
/// `child_num` must enter holding parent b's per-application cost
/// numerators; the crossover folds in the exact cost difference at every
/// position where the child diverges from b (segment diffs + relocations),
/// so the child's numerators leave bit-consistent with its genome without
/// an O(n) rescore.
void pmx_into(const TileId* a, const TileId* b, const TileId* inv_a,
              const TileId* inv_b, std::uint32_t lo, std::uint32_t hi,
              std::size_t n, const ThreadCostCache& cache,
              const std::uint32_t* app_slot, TileId* child, TileId* child_inv,
              double* child_num, std::uint32_t* displaced,
              std::uint32_t* diffs) {
  const std::uint32_t span = hi - lo;  // membership: idx - lo <= span

  std::copy_n(b, n, child);  // full base row; segment diffs rewritten below
  std::copy_n(inv_b, n, child_inv);
  // Pass 1 (branchless compaction): find where the parents disagree inside
  // the segment. Every position-level cost below — segment writes, inverse
  // fixups, cost deltas, displacement tests — scales with this diff count,
  // which collapses toward zero as the population converges, so a
  // late-generation crossover is little more than the two row copies above.
  std::uint32_t num_diffs = 0;
  for (std::uint32_t s = lo; s <= hi; ++s) {
    diffs[num_diffs] = s;
    num_diffs += static_cast<std::uint32_t>(a[s] != b[s]);
  }
  // Pass 2: write the diff positions from a, fold their cost deltas, and
  // compact the displaced subset (those s whose b-value does not also live
  // in a's segment, i.e. the classic PMX repair set). Displaced positions
  // are always diffs: a[s] == b[s] places b[s] in a's segment at s itself.
  std::uint32_t num_displaced = 0;
  for (std::uint32_t d = 0; d < num_diffs; ++d) {
    const std::uint32_t s = diffs[d];
    child[s] = a[s];
    child_inv[a[s]] = static_cast<TileId>(s);
    child_num[app_slot[s]] += cache.cost(s, a[s]) - cache.cost(s, b[s]);
    displaced[num_displaced] = s;
    num_displaced += static_cast<std::uint32_t>(
        static_cast<std::uint32_t>(inv_a[b[s]]) - lo > span);
  }
  // Pass 3: relocate each displaced value by following a[j] ->
  // position-in-b until the chain leaves the segment. That final position
  // held a duplicate of a segment value, so the displaced value lands
  // there — and its cost contribution swaps from b's tile to v's.
  for (std::uint32_t d = 0; d < num_displaced; ++d) {
    const std::uint32_t s = displaced[d];
    const TileId v = b[s];
    std::uint32_t j = s;
    do {
      j = inv_b[a[j]];
    } while (j - lo <= span);
    child[j] = v;
    child_inv[v] = static_cast<TileId>(j);
    child_num[app_slot[j]] += cache.cost(j, v) - cache.cost(j, b[j]);
  }
}

}  // namespace

Mapping GeneticMapper::map(const ObmProblem& problem) {
  NOCMAP_REQUIRE(params_.population > kElites,
                 "population must exceed the 2 elites");

  const obs::ScopedTimer map_scope(t_map);
  const std::size_t n = problem.num_threads();
  const std::size_t pop_size = params_.population;
  Rng rng(params_.seed);
  const ThreadCostCache cache(problem.workload(), problem.model());
  const BatchEvaluator evaluator(problem, cache);
  ParallelTrialRunner runner(params_.parallel);

  // Delta-tracked fitness keeps one cost numerator per slot of the batch
  // evaluator's table, plus its spare slot: threads of zero-volume
  // applications route their (never-read) contributions there, keeping the
  // per-position delta updates branch-free. Fitness is the evaluator's own
  // objective() fold, so it bit-matches the batched scorer on identical
  // genomes up to the accumulated delta rounding.
  const std::uint32_t* app_slot = evaluator.slots().data();
  const std::size_t num_slots = evaluator.apps().size() + 1;
  auto fitness = [&](const double* num) {
    return evaluator.objective({num, num_slots});
  };

  // Two persistent generations as flat genome pools (row k = genome k),
  // swapped each round: parents are read from `pop`, offspring written
  // into `next`, and every buffer is reused for the whole run. The flat
  // rows feed BatchEvaluator::score_rows directly — fitness for a whole
  // lane block is one contiguous pass over the cost rows instead of one
  // cache-missing walk per individual.
  std::vector<TileId> pop(pop_size * n);
  std::vector<TileId> next(pop_size * n);
  // Inverse-permutation pools (row k = inverse of genome k), maintained
  // incrementally through elitism, crossover and mutation — PMX repair
  // needs both parents' inverses, and keeping them pool-resident makes
  // that a pair of row reads instead of an O(n) rebuild per crossover.
  std::vector<TileId> pop_inv(pop_size * n);
  std::vector<TileId> next_inv(pop_size * n);
  std::vector<double> fit(pop_size);
  std::vector<double> next_fit(pop_size);
  // Per-genome per-application cost numerators, maintained incrementally
  // through elitism, crossover and mutation. A clone is a row copy, a
  // mutation is four cost-cache loads, and a PMX child touches only the
  // positions where it diverges from its base parent — so offspring
  // fitness becomes a handful of scalar ops instead of an O(n) rescore,
  // while staying bit-consistent with the batched scorer up to delta
  // rounding (~1e-11 relative over a full run; asserted in debug builds).
  std::vector<double> pop_num(pop_size * num_slots);
  std::vector<double> next_num(pop_size * num_slots);
  for (std::size_t k = 0; k < pop_size; ++k) {
    const std::span<TileId> row(&pop[k * n], n);
    std::iota(row.begin(), row.end(), TileId{0});
    rng.shuffle(row);
    TileId* inv = &pop_inv[k * n];
    for (std::size_t i = 0; i < n; ++i) inv[row[i]] = static_cast<TileId>(i);
    // Thread-ascending accumulation lands each slot's additions in the
    // same order the batched scorer uses, so the objective() fold reproduces
    // score_rows bit-for-bit on the initial population.
    double* num = &pop_num[k * num_slots];
    std::fill_n(num, num_slots, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      num[app_slot[j]] += cache.cost(j, row[j]);
    }
  }
  // Fitness is a pure function of the genome, so evaluations fan out in
  // fixed lane blocks; the breeding RNG stream above never depends on them
  // mid-generation, and per-genome fitness does not depend on the blocking.
  runner.for_each_batch(pop_size, kFitnessBatch,
                        [&](std::size_t lo, std::size_t hi) {
                          evaluator.score_rows(
                              &pop[lo * n], n, hi - lo,
                              std::span<double>(fit.data() + lo, hi - lo));
                        });

  // Tournament of four over the unsorted population: two paired uniform
  // index draws (two contestants per raw draw), first pick then
  // strictly-better replacements — exactly the classic selection pressure
  // without requiring a sorted array.
  // Contestant comparisons are data-random, so every "keep the better"
  // decision is a conditional select (ternary compiles to cmov), never a
  // branch — at two picks per child the mispredict tax would be real.
  const auto upop = static_cast<std::uint32_t>(pop_size);
  auto tournament_pick = [&]() -> std::size_t {
    const auto [i1, i2] = bounded_pair(rng, upop);
    std::size_t best = fit[i2] < fit[i1] ? i2 : i1;
    const auto [i3, i4] = bounded_pair(rng, upop);
    best = fit[i3] < fit[best] ? std::size_t{i3} : best;
    best = fit[i4] < fit[best] ? std::size_t{i4} : best;
    return best;
  };

  std::uint64_t evaluations = pop_size;  // initial fitness fan-out
  const std::size_t offspring = pop_size - kElites;
  std::vector<std::uint8_t> elite_taken(pop_size);
  std::vector<std::uint32_t> pmx_displaced(n);
  std::vector<std::uint32_t> pmx_diffs(n);
  const auto un = static_cast<std::uint32_t>(n);
  for (std::size_t gen = 0; gen < params_.generations; ++gen) {
    // Elites by repeated top-k scan (ties to the lowest index) — the only
    // consumer of a sorted population was this copy and the tournament's
    // rank lookup, so the former O(P log P) sort per generation reduces to
    // O(elites · P) with a deterministic tie-break.
    std::fill(elite_taken.begin(), elite_taken.end(), std::uint8_t{0});
    for (std::size_t e = 0; e < kElites; ++e) {
      std::size_t best = ParallelTrialRunner::npos;
      for (std::size_t k = 0; k < pop_size; ++k) {
        if (elite_taken[k]) continue;
        if (best == ParallelTrialRunner::npos || fit[k] < fit[best]) best = k;
      }
      elite_taken[best] = 1;
      std::copy_n(&pop[best * n], n, &next[e * n]);
      std::copy_n(&pop_inv[best * n], n, &next_inv[e * n]);
      std::copy_n(&pop_num[best * num_slots], num_slots,
                  &next_num[e * num_slots]);
      next_fit[e] = fit[best];
    }
    // Classic symmetric breeding: each tournament round produces TWO
    // children from the same parent pair — PMX(a, b) and its mirror
    // PMX(b, a) over the same segment — so the tournament picks, the
    // crossover decision and the segment draw are all shared across the
    // pair. Mutation stays an independent per-child decision.
    auto mutate = [&](TileId* child, TileId* child_inv, double* child_num) {
      // Operator decisions are single-draw uniform32 comparisons: the rates
      // are coarse tuning constants, so 2^-32 resolution loses nothing.
      if (rng.uniform32() < kMutationRate) {
        const auto [x, y] = bounded_pair(rng, un);
        const TileId tx = child[x];
        const TileId ty = child[y];
        // x == y folds both deltas to an exact 0.0, so no guard is needed.
        child_num[app_slot[x]] += cache.cost(x, ty) - cache.cost(x, tx);
        child_num[app_slot[y]] += cache.cost(y, tx) - cache.cost(y, ty);
        child[x] = ty;
        child[y] = tx;
        child_inv[ty] = static_cast<TileId>(x);
        child_inv[tx] = static_cast<TileId>(y);
      }
    };
    for (std::size_t k = kElites; k < pop_size; k += 2) {
      const std::size_t pa = tournament_pick();
      const std::size_t pb = tournament_pick();
      const bool twins = k + 1 < pop_size;
      TileId* c1 = &next[k * n];
      TileId* c1_inv = &next_inv[k * n];
      double* c1_num = &next_num[k * num_slots];
      TileId* c2 = twins ? &next[(k + 1) * n] : nullptr;
      TileId* c2_inv = twins ? &next_inv[(k + 1) * n] : nullptr;
      double* c2_num = twins ? &next_num[(k + 1) * num_slots] : nullptr;
      if (rng.uniform32() < kCrossoverRate) {
        auto [lo, hi] = bounded_pair(rng, un);
        if (lo > hi) std::swap(lo, hi);
        // Each child's numerators start as its base parent's (the one it is
        // a row copy of) and pmx_into folds in the divergence deltas.
        std::copy_n(&pop_num[pb * num_slots], num_slots, c1_num);
        pmx_into(&pop[pa * n], &pop[pb * n], &pop_inv[pa * n],
                 &pop_inv[pb * n], lo, hi, n, cache, app_slot, c1,
                 c1_inv, c1_num, pmx_displaced.data(), pmx_diffs.data());
        if (twins) {
          std::copy_n(&pop_num[pa * num_slots], num_slots, c2_num);
          pmx_into(&pop[pb * n], &pop[pa * n], &pop_inv[pb * n],
                   &pop_inv[pa * n], lo, hi, n, cache, app_slot, c2,
                   c2_inv, c2_num, pmx_displaced.data(), pmx_diffs.data());
        }
      } else {
        std::copy_n(&pop[pa * n], n, c1);
        std::copy_n(&pop_inv[pa * n], n, c1_inv);
        std::copy_n(&pop_num[pa * num_slots], num_slots, c1_num);
        if (twins) {
          std::copy_n(&pop[pb * n], n, c2);
          std::copy_n(&pop_inv[pb * n], n, c2_inv);
          std::copy_n(&pop_num[pb * num_slots], num_slots, c2_num);
        }
      }
      mutate(c1, c1_inv, c1_num);
      next_fit[k] = fitness(c1_num);
      if (twins) {
        mutate(c2, c2_inv, c2_num);
        next_fit[k + 1] = fitness(c2_num);
      }
    }
    evaluations += offspring;
#if !defined(NDEBUG)
    // Debug cross-check: the tracked numerators must agree with a fresh
    // batched rescore of every offspring. The only admissible difference
    // is FP rounding of the accumulated deltas, orders of magnitude below
    // the tolerance here — anything larger is a delta-bookkeeping bug.
    {
      std::vector<double> check(offspring);
      evaluator.score_rows(&next[kElites * n], n, offspring,
                           std::span<double>(check));
      for (std::size_t i = 0; i < offspring; ++i) {
        NOCMAP_ASSERT(std::abs(next_fit[kElites + i] - check[i]) <=
                      1e-6 * std::max(1.0, std::abs(check[i])));
      }
    }
#endif
    std::swap(pop, next);
    std::swap(pop_inv, next_inv);
    std::swap(pop_num, next_num);
    std::swap(fit, next_fit);
  }
  c_generations.add(params_.generations);
  c_evaluations.add(evaluations);

  std::size_t best = 0;
  for (std::size_t k = 1; k < pop_size; ++k) {
    if (fit[k] < fit[best]) best = k;
  }
  Mapping mapping;
  mapping.thread_to_tile.assign(&pop[best * n], &pop[best * n] + n);
  return mapping;
}

}  // namespace nocmap
