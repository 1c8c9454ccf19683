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

void MappingEvaluator::score_group_candidates(
    std::span<const std::size_t> threads, const TileId* tiles,
    std::size_t count, std::span<double> out) const {
  NOCMAP_REQUIRE(out.size() >= count, "score output span too small");
  const std::span<const BatchEvaluator::App> apps = table_.apps();

  // Affected slots with traffic, ascending and deduplicated — the same set
  // apply_group would recompute.
  std::vector<std::size_t> touched;
  touched.reserve(threads.size());
  for (const std::size_t j : threads) {
    const std::size_t slot = table_.slots()[j];
    if (slot < apps.size()) touched.push_back(slot);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // The untouched applications contribute the same term to every candidate;
  // max over applications is order-independent, so fold them once. A zeroed
  // numerator drops its application's term, since every term is >= 0.
  std::vector<double> untouched(numerator_);
  for (const std::size_t slot : touched) untouched[slot] = 0.0;
  const double base = table_.objective(untouched);

  constexpr std::size_t kLanes = 64;
  double worst[kLanes];
  double acc[kLanes];
  for (std::size_t b0 = 0; b0 < count; b0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - b0);
    for (std::size_t b = 0; b < lanes; ++b) worst[b] = base;
    for (const std::size_t slot : touched) {
      const BatchEvaluator::App& app = apps[slot];
      for (std::size_t b = 0; b < lanes; ++b) acc[b] = 0.0;
      for (std::size_t j = app.first; j < app.last; ++j) {
        // Group membership resolved once per thread, shared by all lanes.
        std::size_t x = threads.size();
        for (std::size_t xi = 0; xi < threads.size(); ++xi) {
          if (threads[xi] == j) {
            x = xi;
            break;
          }
        }
        if (x == threads.size()) {
          const double c = cache_->cost(j, mapping_.tile_of(j));
          for (std::size_t b = 0; b < lanes; ++b) acc[b] += c;
        } else {
          const double* row = cache_->row(j);
          const TileId* cand = tiles + x * count + b0;
          for (std::size_t b = 0; b < lanes; ++b) acc[b] += row[cand[b]];
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
