#include "core/evaluator.h"

#include <algorithm>

namespace nocmap {

MappingEvaluator::MappingEvaluator(const ObmProblem& problem, Mapping initial,
                                   const ThreadCostCache& cache)
    : table_(problem, cache), cache_(&cache), mapping_(std::move(initial)) {
  NOCMAP_REQUIRE(mapping_.is_valid_permutation(problem.num_threads()),
                 "initial mapping must be a valid permutation");
  tile_to_thread_.assign(problem.num_tiles(), 0);
  for (std::size_t j = 0; j < mapping_.size(); ++j) {
    tile_to_thread_[mapping_.tile_of(j)] = j;
  }
  numerator_.resize(table_.apps().size());
  for (std::size_t s = 0; s < numerator_.size(); ++s) recompute(s);
}

void MappingEvaluator::place_thread(std::size_t j, TileId tile) {
  mapping_.thread_to_tile[j] = tile;
  tile_to_thread_[tile] = j;
}

void MappingEvaluator::recompute(std::size_t slot) {
  if (slot < numerator_.size()) {
    numerator_[slot] = table_.numerator(slot, mapping_.thread_to_tile.data());
  }
}

void MappingEvaluator::swap_threads(std::size_t j1, std::size_t j2) {
  NOCMAP_REQUIRE(j1 < mapping_.size() && j2 < mapping_.size(),
                 "thread index out of range");
  if (j1 == j2) return;
  const TileId t1 = mapping_.tile_of(j1);
  const TileId t2 = mapping_.tile_of(j2);
  place_thread(j1, t2);
  place_thread(j2, t1);
  const std::size_t s1 = table_.slots()[j1];
  const std::size_t s2 = table_.slots()[j2];
  recompute(s1);
  if (s1 != s2) recompute(s2);
}

void MappingEvaluator::apply_group(std::span<const std::size_t> threads,
                                   std::span<const TileId> tiles) {
  NOCMAP_REQUIRE(threads.size() == tiles.size(),
                 "group thread/tile arity mismatch");
#ifndef NDEBUG
  // The tile multiset must equal the tiles the group currently occupies,
  // otherwise the permutation would break.
  std::vector<TileId> held;
  held.reserve(threads.size());
  for (std::size_t j : threads) held.push_back(mapping_.tile_of(j));
  std::vector<TileId> target(tiles.begin(), tiles.end());
  std::sort(held.begin(), held.end());
  std::sort(target.begin(), target.end());
  NOCMAP_ASSERT(held == target);
#endif
  // Collect the affected slots, then recompute each once.
  touched_.clear();
  for (std::size_t idx = 0; idx < threads.size(); ++idx) {
    place_thread(threads[idx], tiles[idx]);
    touched_.push_back(table_.slots()[threads[idx]]);
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (const std::size_t slot : touched_) recompute(slot);
}

void MappingEvaluator::sort_group(std::span<const std::size_t> threads,
                                  Member* group) const {
  NOCMAP_REQUIRE(threads.size() <= kMaxGroup,
                 "thread group larger than MappingEvaluator::kMaxGroup");
  for (std::size_t x = 0; x < threads.size(); ++x) {
    NOCMAP_ASSERT(threads[x] < mapping_.size());
    group[x] = {threads[x], x};
  }
  Member* const end = group + threads.size();
  std::sort(group, end, [](const Member& a, const Member& b) {
    return a.thread < b.thread;
  });
  NOCMAP_ASSERT(std::adjacent_find(group, end,
                                   [](const Member& a, const Member& b) {
                                     return a.thread == b.thread;
                                   }) == end);
}

double MappingEvaluator::untouched_objective(const Member* group,
                                             std::size_t size) const {
  // objective()'s fold over the slots with no group thread. Leaving a slot
  // out gives the same double as folding a zero numerator for it, since
  // every term is >= 0 and the fold keeps only strictly larger terms.
  const std::span<const BatchEvaluator::App> apps = table_.apps();
  double worst = 0.0;
  std::size_t m = 0;
  for (std::size_t s = 0; s < apps.size(); ++s) {
    while (m < size && group[m].thread < apps[s].first) ++m;
    if (m < size && group[m].thread < apps[s].last) continue;  // touched
    const double apl = apps[s].weight * numerator_[s] / apps[s].volume;
    if (apl > worst) worst = apl;
  }
  return worst;
}

bool MappingEvaluator::can_improve(
    std::span<const std::size_t> threads) const {
  Member group[kMaxGroup];
  sort_group(threads, group);
  return untouched_objective(group, threads.size()) < objective();
}

void MappingEvaluator::score_group_candidates(
    std::span<const std::size_t> threads, const TileId* tiles,
    std::size_t count, std::span<double> out) const {
  NOCMAP_REQUIRE(out.size() >= count, "score output span too small");
  const std::span<const BatchEvaluator::App> apps = table_.apps();
  Member group[kMaxGroup];
  sort_group(threads, group);
  const std::size_t size = threads.size();

  // The untouched applications contribute the same term to every candidate;
  // max over applications is order-independent, so fold them once.
  const double base = untouched_objective(group, size);

  constexpr std::size_t kLanes = 64;
  double worst[kLanes];
  double acc[kLanes];
  for (std::size_t b0 = 0; b0 < count; b0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - b0);
    for (std::size_t b = 0; b < lanes; ++b) worst[b] = base;
    // Touched applications in slot order: sorted by thread, each
    // application's group threads are consecutive, and the walk over its
    // thread range consumes all of them.
    std::size_t m = 0;
    while (m < size) {
      const std::size_t slot = table_.slots()[group[m].thread];
      if (slot >= apps.size()) {  // zero-volume application: no term
        ++m;
        continue;
      }
      const BatchEvaluator::App& app = apps[slot];
      // Every lane adds the same costs up to the first group thread, so
      // that prefix is summed once, left to right, and copied to the lanes.
      std::size_t j = app.first;
      double prefix = 0.0;
      for (; j < group[m].thread; ++j) {
        prefix += cache_->cost(j, mapping_.tile_of(j));
      }
      for (std::size_t b = 0; b < lanes; ++b) acc[b] = prefix;
      for (; j < app.last; ++j) {
        if (m < size && group[m].thread == j) {
          const double* row = cache_->row(j);
          const TileId* cand = tiles + group[m].pos * count + b0;
          for (std::size_t b = 0; b < lanes; ++b) acc[b] += row[cand[b]];
          ++m;
        } else {
          const double c = cache_->cost(j, mapping_.tile_of(j));
          for (std::size_t b = 0; b < lanes; ++b) acc[b] += c;
        }
      }
      // objective()'s fold, one lane per accumulator.
      for (std::size_t b = 0; b < lanes; ++b) {
        const double apl = app.weight * acc[b] / app.volume;
        if (apl > worst[b]) worst[b] = apl;
      }
    }
    for (std::size_t b = 0; b < lanes; ++b) out[b0 + b] = worst[b];
  }
}

}  // namespace nocmap
