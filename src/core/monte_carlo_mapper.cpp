#include "core/monte_carlo_mapper.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "core/batch_eval.h"
#include "core/cost_cache.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace nocmap {

namespace {

// Throughput metrics (docs/metrics-schema.md): trials are accumulated once
// per shard — one relaxed add per 256 trials, nothing inside the trial loop.
const obs::Timer t_map("mc.map");
const obs::Counter c_trials("mc.trials");
const obs::Counter c_shards("mc.shards");

// Trials generated and scored per batch-evaluator call. 32 row-major
// candidate rows (32 · N tiles) stay inside L1 for bench-scale problems
// while amortizing the cost-row traversal across enough independent
// accumulators to hide the FP-add latency chain.
constexpr std::size_t kBlock = 32;

/// Number of independent generator streams (rows generated together). Each
/// row's inside-out Fisher–Yates is a serial chain — every placement's load
/// depends on an unpredictable prior store — so single-row generation is
/// latency-bound; eight interleaved rows give the core eight independent
/// chains to overlap, which also hides the PCG state-update latency.
/// Streams are assigned row-position-fixed (row b+g from stream g), so
/// generation stays fully deterministic.
constexpr std::size_t kGenStreams = 8;
static_assert(kBlock % kGenStreams == 0);

/// Four inside-out Fisher–Yates placements (elements i..i+3) from ONE raw
/// 32-bit draw: the first index is the multiply-shift map (x·(i+1)) >> 32
/// and each subsequent one reuses the low 32 bits of the previous product
/// as a fresh variate for the next bound. The reused bits are approximately
/// uniform but not independent enough for rejection-free exactness, so
/// unlike Rng::uniform_u32 this mapping carries the plain multiply-shift
/// modulo bias of order bound/2^32 (< 1e-6 for bench-scale N) —
/// statistically irrelevant for a random search that only ranks objective
/// values, and a quarter of the RNG traffic of one draw per placement.
inline void fy_step_quad(TileId* r, std::size_t i, std::uint64_t x) {
  std::uint64_t m = x * (i + 1);
  auto j = static_cast<std::size_t>(m >> 32);
  r[i] = r[j];
  r[j] = static_cast<TileId>(i);
  m = static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) * (i + 2);
  j = static_cast<std::size_t>(m >> 32);
  r[i + 1] = r[j];
  r[j] = static_cast<TileId>(i + 1);
  m = static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) * (i + 3);
  j = static_cast<std::size_t>(m >> 32);
  r[i + 2] = r[j];
  r[j] = static_cast<TileId>(i + 2);
  m = static_cast<std::uint64_t>(static_cast<std::uint32_t>(m)) * (i + 4);
  j = static_cast<std::size_t>(m >> 32);
  r[i + 3] = r[j];
  r[j] = static_cast<TileId>(i + 3);
}

inline void fy_step_pair(TileId* r, std::size_t i, std::uint64_t x) {
  const std::uint64_t m1 = x * (i + 1);
  const auto j1 = static_cast<std::size_t>(m1 >> 32);
  r[i] = r[j1];
  r[j1] = static_cast<TileId>(i);
  const std::uint64_t m2 =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(m1)) * (i + 2);
  const auto j2 = static_cast<std::size_t>(m2 >> 32);
  r[i + 1] = r[j2];
  r[j2] = static_cast<TileId>(i + 1);
}

inline void fy_step_single(TileId* r, std::size_t i, std::uint64_t x) {
  const std::uint64_t m = x * (i + 1);
  const auto j = static_cast<std::size_t>(m >> 32);
  r[i] = r[j];
  r[j] = static_cast<TileId>(i);
}

/// Fills rows [0, count) of the row-major scratch (stride n) with
/// independent uniform random permutations of 0..n-1. Each row runs an
/// inside-out Fisher–Yates (a[i] = a[j]; a[j] = i for j uniform in [0, i]),
/// which needs no identity-permutation pass; rows are compact (4 cache
/// lines at bench scale), so eight interleaved chains run near ALU
/// throughput instead of store-load disambiguation latency.
void fill_random_rows(TileId* rows, std::size_t n, std::size_t count,
                      std::array<Rng, kGenStreams>& gs) {
  std::size_t b = 0;
  for (; b + kGenStreams <= count; b += kGenStreams) {
    TileId* r[kGenStreams];
    for (std::size_t g = 0; g < kGenStreams; ++g) {
      r[g] = rows + (b + g) * n;
      r[g][0] = 0;
    }
    std::size_t i = 1;
    while (i + 3 < n) {
      for (std::size_t g = 0; g < kGenStreams; ++g) {
        fy_step_quad(r[g], i, gs[g]());
      }
      i += 4;
    }
    while (i + 1 < n) {
      for (std::size_t g = 0; g < kGenStreams; ++g) {
        fy_step_pair(r[g], i, gs[g]());
      }
      i += 2;
    }
    if (i < n) {
      for (std::size_t g = 0; g < kGenStreams; ++g) {
        fy_step_single(r[g], i, gs[g]());
      }
    }
  }
  for (; b < count; ++b) {  // ragged tail: single rows from stream 0
    TileId* r = rows + b * n;
    r[0] = 0;
    std::size_t i = 1;
    while (i + 3 < n) {
      fy_step_quad(r, i, gs[0]());
      i += 4;
    }
    while (i + 1 < n) {
      fy_step_pair(r, i, gs[0]());
      i += 2;
    }
    if (i < n) fy_step_single(r, i, gs[0]());
  }
}

struct ShardBest {
  double max_apl = std::numeric_limits<double>::infinity();
  std::vector<TileId> perm;
};

}  // namespace

Mapping MonteCarloMapper::map(const ObmProblem& problem) {
  NOCMAP_REQUIRE(trials_ > 0, "MonteCarloMapper needs at least one trial");
  const obs::ScopedTimer map_scope(t_map);
  const std::size_t n = problem.num_threads();
  const Rng base(seed_);
  const ThreadCostCache cache(problem.workload(), problem.model());
  const BatchEvaluator evaluator(problem, cache);

  // Fixed shard geometry (independent of thread count) keeps the search
  // deterministic: shard s always runs the same trials with stream fork(s).
  constexpr std::size_t kShardSize = 256;
  static_assert(kShardSize % kBlock == 0);
  // Rounds up without forming trials_ + kShardSize - 1, which wraps near 2^64.
  const std::size_t shards =
      trials_ / kShardSize + (trials_ % kShardSize != 0 ? 1 : 0);
  std::vector<ShardBest> best_per_shard(shards);

  ParallelTrialRunner runner(parallel_);
  runner.for_each(shards, [&](std::size_t s) {
    Rng rng = base.fork(s);
    // Per-shard generation streams (see fill_random_rows); all derive from
    // the shard stream, so shard s is self-contained.
    std::array<Rng, kGenStreams> gen{
        rng.fork(0xa), rng.fork(0xb), rng.fork(0xc), rng.fork(0xd),
        rng.fork(0xe), rng.fork(0xf), rng.fork(0x10), rng.fork(0x11)};
    ShardBest& best = best_per_shard[s];
    const std::size_t lo = s * kShardSize;
    const std::size_t hi = lo + std::min(kShardSize, trials_ - lo);
    c_trials.add(hi - lo);
    c_shards.add();
    std::vector<TileId> rows(kBlock * n);
    std::vector<double> scores(kBlock);
    best.perm.resize(n);
    for (std::size_t t0 = lo; t0 < hi; t0 += kBlock) {
      const std::size_t count = std::min(kBlock, hi - t0);
      fill_random_rows(rows.data(), n, count, gen);
      // Plain (unpruned) scoring: every lane's max-APL is exact, so the
      // running-best comparison below is trivially order-safe. A pruned
      // pass was measured slower here — the per-app cutoff checks cost
      // more than the truncated accumulation saves at bench scale.
      evaluator.score_rows(rows.data(), n, count, scores);
      for (std::size_t b = 0; b < count; ++b) {
        if (scores[b] < best.max_apl) {
          best.max_apl = scores[b];
          std::copy_n(&rows[b * n], n, best.perm.data());
        }
      }
    }
  });

  // Deterministic merge: lowest max-APL, ties to the lowest shard index.
  const ShardBest* winner = &best_per_shard.front();
  for (const auto& cand : best_per_shard) {
    if (cand.max_apl < winner->max_apl) winner = &cand;
  }

  Mapping mapping;
  mapping.thread_to_tile = winner->perm;
  return mapping;
}

}  // namespace nocmap
